package mem

import "fmt"

// Bank pages. Every core owns a 64 KiB local and a 64 KiB shared bank,
// so a 1024-core machine addresses 128 MiB, yet a program writes a few
// KiB per core (the figure-22 scale program: four stack pages and two
// shared pages). Each bank family is therefore one flat table of 1 KiB
// pages: a nil entry reads as zeros and holds no memory, the first
// non-zero write to a page attaches one — from the System's free list,
// else a new allocation — and Reset zeroes and detaches only the pages
// written since the last Reset. The page table is also the bank content
// a checkpoint carries (State.Local, State.Shared): the attached pages
// themselves, by index.

const (
	pageShift = 8 // log2(pageWords)
	pageWords = 1 << pageShift
)

// page is one 1 KiB slice of a bank.
type page = [pageWords]uint32

// banks backs one bank family: every core's local bank, or every
// core's shared bank.
type banks struct {
	pages   []*page // word off of bank b lives in pages[b*perBank+off>>pageShift]
	perBank int     // pages per bank: the bank's words rounded up to a page
	words   uint32  // words per bank: bounds every offset
	written []int32 // indices of the attached pages, in attach order
}

func newBanks(n int, bankBytes uint32) banks {
	words := bankBytes / 4
	per := int((words + pageWords - 1) / pageWords)
	return banks{pages: make([]*page, n*per), perBank: per, words: words}
}

// load reads word off of bank.
func (b *banks) load(bank int, off uint32) uint32 {
	if p := b.pages[bank*b.perBank+int(off>>pageShift)]; p != nil {
		return p[off%pageWords]
	}
	return 0
}

// write sets word off of bank to w. A zero written to an absent page
// changes nothing (it already reads zero); any other word attaches one:
// the last page released, else a new one.
func (s *System) write(b *banks, bank int, off, w uint32) {
	i := bank*b.perBank + int(off>>pageShift)
	p := b.pages[i]
	if p == nil {
		if w == 0 {
			return
		}
		if n := len(s.free); n > 0 {
			p = s.free[n-1]
			s.free = s.free[:n-1]
		} else {
			p = new(page)
		}
		b.pages[i] = p
		b.written = append(b.written, int32(i))
	}
	p[off%pageWords] = w
}

// release zeroes and detaches every page written since the last
// release and returns it to the free list: the family reads as zeros
// again at a cost of O(pages written).
func (s *System) release(b *banks) {
	for _, i := range b.written {
		p := b.pages[i]
		clear(p[:])
		s.free = append(s.free, p)
		b.pages[i] = nil
	}
	b.written = b.written[:0]
}

// capture lists the family's attached pages that hold a non-zero word,
// in ascending page-table index order. Each Page points at the live
// page: nothing is copied.
func (b *banks) capture() []Page {
	var out []Page
	for i, p := range b.pages {
		if p != nil && *p != (page{}) {
			out = append(out, Page{Index: int32(i), Words: p})
		}
	}
	return out
}

// check holds captured pages to the family: each index lies inside the
// page table, the indices strictly ascend, and a partial last page of a
// bank (TestOddBankSizes' geometry) holds no non-zero word past the
// bank's last word.
func (b *banks) check(pages []Page, what string) error {
	tail := b.words % pageWords // words of a bank's partial last page; 0 if none
	prev := int32(-1)
	for _, p := range pages {
		if p.Index < 0 || int(p.Index) >= len(b.pages) {
			return fmt.Errorf("mem: state %s page %d lies past the family's %d pages", what, p.Index, len(b.pages))
		}
		if p.Index <= prev {
			return fmt.Errorf("mem: state %s page %d does not ascend from page %d", what, p.Index, prev)
		}
		prev = p.Index
		if tail != 0 && p.Words != nil && int(p.Index)%b.perBank == b.perBank-1 {
			for _, w := range p.Words[tail:] {
				if w != 0 {
					return fmt.Errorf("mem: state %s page %d holds a word past its bank", what, p.Index)
				}
			}
		}
	}
	return nil
}

// attach installs checked pages into a released family, taking them
// over as they are. A page that reads all zeros attaches nothing.
func (b *banks) attach(pages []Page) {
	for _, p := range pages {
		if p.Words != nil && *p.Words != (page{}) {
			b.pages[p.Index] = p.Words
			b.written = append(b.written, p.Index)
		}
	}
}
