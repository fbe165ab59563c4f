package mem

// Bank pages. Every core owns a 64 KiB local and a 64 KiB shared bank,
// so a 1024-core machine addresses 128 MiB, yet a program writes a few
// KiB per core (the figure-22 scale program: four stack pages and two
// shared pages). Each bank family is therefore one flat table of 1 KiB
// pages: a nil entry reads as zeros and holds no memory, the first
// non-zero write to a page attaches one — from the System's free list,
// else a new allocation — and Reset zeroes and detaches only the pages
// written since the last Reset.

const (
	pageShift = 8 // log2(pageWords)
	pageWords = 1 << pageShift
)

// page is one 1 KiB slice of a bank.
type page [pageWords]uint32

// banks backs one bank family: every core's local bank, or every
// core's shared bank.
type banks struct {
	pages   []*page // word off of bank b lives in pages[b*perBank+off>>pageShift]
	perBank int     // pages per bank: the bank's words rounded up to a page
	words   uint32  // words per bank: bounds every offset and image length
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

// of returns bank's slice of the page table.
func (b *banks) of(bank int) []*page {
	return b.pages[bank*b.perBank : (bank+1)*b.perBank]
}

// image copies bank out of its pages, trimmed of trailing zero words
// (nil for a bank that reads all zeros).
func (b *banks) image(bank int) []uint32 {
	pages := b.of(bank)
	n := 0
	for k := len(pages) - 1; k >= 0 && n == 0; k-- {
		if p := pages[k]; p != nil {
			for j := pageWords - 1; j >= 0; j-- {
				if p[j] != 0 {
					n = k*pageWords + j + 1
					break
				}
			}
		}
	}
	if n == 0 {
		return nil
	}
	img := make([]uint32, n)
	for k, p := range pages[:(n+pageWords-1)/pageWords] {
		if p != nil {
			copy(img[k*pageWords:], p[:])
		}
	}
	return img
}

// restore sets bank to img followed by zeros. It writes only img's
// non-zero words, so a zero run never attaches a page.
func (s *System) restore(b *banks, bank int, img []uint32) {
	for _, p := range b.of(bank) {
		if p != nil {
			clear(p[:])
		}
	}
	for off, w := range img {
		if w != 0 {
			s.write(b, bank, uint32(off), w)
		}
	}
}
