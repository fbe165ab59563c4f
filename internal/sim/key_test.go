package sim

import (
	"testing"

	"repro/internal/lbp"
)

// TestCacheKeyCanonicalization: keys ignore request syntax and
// host-side knobs, and respond to every result-affecting field.
func TestCacheKeyCanonicalization(t *testing.T) {
	prog := exitProgram(t)
	base := Spec{Program: prog, Cores: 2, MaxCycles: 10_000, Trace: TraceSpec{Digest: true}}
	key := func(s Spec) string {
		t.Helper()
		k, err := CacheKey(s)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	want := key(base)
	if len(want) != 64 {
		t.Fatalf("key %q is not 64 hex digits", want)
	}

	same := []struct {
		name string
		spec Spec
	}{
		{"identical", base},
		{"simworkers is results-neutral", func() Spec { s := base; s.SimWorkers = 8; return s }()},
		{"explicit equivalent config", func() Spec {
			s := base
			cfg := lbp.DefaultConfig(2)
			s.Config, s.Cores = &cfg, 0
			return s
		}()},
	}
	for _, tc := range same {
		if got := key(tc.spec); got != want {
			t.Errorf("%s: key %s != %s", tc.name, got[:12], want[:12])
		}
	}

	diff := []struct {
		name string
		spec Spec
	}{
		{"cores", func() Spec { s := base; s.Cores = 4; return s }()},
		{"bank bytes", func() Spec { s := base; s.SharedBankBytes = 1 << 15; return s }()},
		{"max cycles", func() Spec { s := base; s.MaxCycles = 20_000; return s }()},
		{"digest off", func() Spec { s := base; s.Trace.Digest = false; return s }()},
		{"ring", func() Spec { s := base; s.Trace.Ring = 16; return s }()},
		{"profile", func() Spec { s := base; s.Profile = true; return s }()},
	}
	for _, tc := range diff {
		if got := key(tc.spec); got == want {
			t.Errorf("%s: result-affecting change kept key %s", tc.name, got[:12])
		}
	}

	// A zero budget resolves to the default budget's key.
	a, b := base, base
	a.MaxCycles = 0
	b.MaxCycles = defaultMaxCycles
	if key(a) != key(b) {
		t.Error("zero MaxCycles does not canonicalize to the default budget")
	}
}

// TestCacheKeyErrors: no program and device-bearing specs are not
// addressable.
func TestCacheKeyErrors(t *testing.T) {
	if _, err := CacheKey(Spec{}); err == nil {
		t.Error("CacheKey accepted a program-less spec")
	}
	spec := Spec{Program: exitProgram(t), Devices: []lbp.Device{nil}}
	if _, err := CacheKey(spec); err == nil {
		t.Error("CacheKey accepted a spec with devices")
	}
}
