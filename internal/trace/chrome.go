package trace

import (
	"bufio"
	"fmt"
	"io"
	"sort"
)

// WriteChrome writes evs (oldest first, as returned by Recorder.Last) in
// the Chrome trace-event JSON format, loadable in chrome://tracing or
// Perfetto. One simulated cycle maps to one trace microsecond.
//
// Every event becomes a thread-scoped instant on (pid=core, tid=hart).
// Hart lifetimes are reconstructed as complete ("X") spans from the
// existing event stream — a span opens at a hart's KindStart and closes
// at its KindJoin (or at the last seen cycle if the hart never joined,
// e.g. hart 0 or a truncated ring). No new event kinds are introduced,
// so digests recorded before this exporter existed are unaffected.
//
// The output is deterministic: instants appear in input order, spans
// sorted by (core, hart, start cycle).
func WriteChrome(w io.Writer, evs []Event) error {
	bw := bufio.NewWriter(w)
	bw.WriteString(`{"traceEvents":[`)
	first := true
	put := func(format string, args ...any) {
		if !first {
			bw.WriteByte(',')
		}
		first = false
		bw.WriteString("\n ")
		fmt.Fprintf(bw, format, args...)
	}

	type key struct {
		core uint16
		hart uint8
	}
	type span struct {
		core       uint16
		hart       uint8
		start, end uint64
	}
	open := make(map[key]uint64)
	var spans []span
	var last uint64
	for _, e := range evs {
		if e.Cycle > last {
			last = e.Cycle
		}
		put(`{"name":%q,"ph":"i","s":"t","ts":%d,"pid":%d,"tid":%d,"args":{"value":%d}}`,
			e.Kind.String(), e.Cycle, e.Core, e.Hart, e.Value)
		k := key{e.Core, e.Hart}
		switch e.Kind {
		case KindStart:
			if s, ok := open[k]; ok {
				// restarted without an observed join (ring truncation):
				// close the stale span at the new start.
				spans = append(spans, span{k.core, k.hart, s, e.Cycle})
			}
			open[k] = e.Cycle
		case KindJoin:
			if s, ok := open[k]; ok {
				spans = append(spans, span{k.core, k.hart, s, e.Cycle})
				delete(open, k)
			}
		}
	}
	for k, s := range open {
		spans = append(spans, span{k.core, k.hart, s, last})
	}
	sort.Slice(spans, func(i, j int) bool {
		a, b := spans[i], spans[j]
		if a.core != b.core {
			return a.core < b.core
		}
		if a.hart != b.hart {
			return a.hart < b.hart
		}
		return a.start < b.start
	})
	for _, s := range spans {
		put(`{"name":"hart","ph":"X","ts":%d,"dur":%d,"pid":%d,"tid":%d}`,
			s.start, s.end-s.start, s.core, s.hart)
	}
	bw.WriteString("\n],\"displayTimeUnit\":\"ns\"}\n")
	return bw.Flush()
}

// WriteChrome exports all events retained in the recorder's ring buffer.
func (r *Recorder) WriteChrome(w io.Writer) error {
	return WriteChrome(w, r.Last(len(r.Ring)))
}
