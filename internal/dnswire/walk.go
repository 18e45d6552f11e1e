package dnswire

// Zero-copy record walking. Records continues a View past its question and
// reads every resource record in place: owner names are validated and
// skipped, the fixed fields decoded, and the RDATA handed out as a borrowed
// span. The accept set is a strict subset of Unpack's, by the same rule as
// ParseView: every name (owners and names inside typed RDATA) has plain
// ASCII labels with no '.' bytes and fits ParseName's length limits, any
// compression pointer points strictly backward as parser.name demands,
// typed RDATA decodes to exactly its RDLENGTH, and no bytes trail the last
// record. Whatever the walker accepts, Unpack accepts with the same
// sections, types, classes, TTLs and RDATA; everything else stops the walk
// with Done false and the caller falls back to Unpack.

// Section identifies the message section a walked record belongs to.
type Section uint8

// Record sections, in wire order.
const (
	SectionAnswer Section = iota + 1
	SectionAuthority
	SectionAdditional
)

// RRView is a zero-copy read of one resource record. Data borrows the
// RDATA span from the walked buffer under the View no-escape rule; an
// owner name is validated but not exposed.
type RRView struct {
	Section Section
	Type    Type
	Class   Class
	TTL     uint32
	Data    []byte
}

// RRWalker iterates the records of a viewed message. Obtain one with
// View.Records; the zero RRWalker yields nothing and is never Done.
type RRWalker struct {
	buf  []byte // nil once a record proved not viewable
	off  int
	sec  Section
	left [3]int // records still unread in answer, authority, additional
}

// Records returns a walker over the records that follow v's question. Only
// single-question messages are walkable: with QDCOUNT other than 1 the
// walker yields nothing and Done reports false.
func (v View) Records() RRWalker {
	if v.QDCount() != 1 {
		return RRWalker{}
	}
	return RRWalker{
		buf:  v.buf,
		off:  v.end,
		sec:  SectionAnswer,
		left: [3]int{int(v.ANCount()), int(v.NSCount()), int(v.ARCount())},
	}
}

// Next reads the next record. It returns false when every counted record
// has been read or when a record is not viewable; Done tells the two apart.
func (w *RRWalker) Next() (RRView, bool) {
	if w.buf == nil {
		return RRView{}, false
	}
	for w.left[w.sec-1] == 0 {
		if w.sec == SectionAdditional {
			return RRView{}, false
		}
		w.sec++
	}
	b := w.buf
	off, ok := walkName(b, w.off, true)
	if !ok || off+10 > len(b) {
		w.buf = nil
		return RRView{}, false
	}
	rr := RRView{
		Section: w.sec,
		Type:    Type(uint16(b[off])<<8 | uint16(b[off+1])),
		Class:   Class(uint16(b[off+2])<<8 | uint16(b[off+3])),
		TTL:     uint32(b[off+4])<<24 | uint32(b[off+5])<<16 | uint32(b[off+6])<<8 | uint32(b[off+7]),
	}
	start := off + 10
	end := start + (int(b[off+8])<<8 | int(b[off+9]))
	if end > len(b) || !rdataFits(b, start, end, rr.Type) {
		w.buf = nil
		return RRView{}, false
	}
	rr.Data = b[start:end]
	w.off = end
	w.left[w.sec-1]--
	return rr, true
}

// Done reports whether the walk finished cleanly: every counted record was
// read, each viewable, and the last one ends exactly at the buffer's end.
// Only then is the message certain to Unpack.
func (w *RRWalker) Done() bool {
	return w.buf != nil && w.left == [3]int{} && w.off == len(w.buf)
}

// rdataFits reports whether the RDATA in b[start:end] decodes as parser.rdata
// would decode type t, consuming exactly the span. Names inside RDATA are
// read against the whole buffer (pointers may reach back into earlier
// records) and must end exactly where their field does.
func rdataFits(b []byte, start, end int, t Type) bool {
	switch t {
	case TypeA:
		return end-start == 4
	case TypeAAAA:
		return end-start == 16
	case TypeNS, TypeCNAME, TypePTR:
		n, ok := walkName(b, start, true)
		return ok && n == end
	case TypeMX:
		n, ok := walkName(b, start+2, true)
		return ok && n == end
	case TypeSOA:
		n, ok := walkName(b, start, true)
		if !ok {
			return false
		}
		n, ok = walkName(b, n, true)
		return ok && n+20 == end
	case TypeTXT:
		for off := start; off < end; {
			off += 1 + int(b[off])
			if off > end {
				return false
			}
		}
		return true
	default:
		return true
	}
}

// walkName validates the name at off and returns the offset just past it in
// the byte stream (past the first pointer, when compressed). It accepts the
// View subset of parser.name: labels of plain ASCII without '.', at most
// MaxNameWireLen octets in all, and — when compressed is true — pointers
// that each point strictly before the previous jump's start, the rule that
// also bounds the walk.
func walkName(b []byte, off int, compressed bool) (int, bool) {
	total := 0
	next := -1 // stream offset past the name, fixed by the first pointer
	minPtr := off
	for {
		if off >= len(b) {
			return 0, false
		}
		c := int(b[off])
		switch {
		case c == 0:
			if next < 0 {
				next = off + 1
			}
			return next, true
		case c < 64:
			if off+1+c > len(b) {
				return 0, false
			}
			total += c + 1
			if total+1 > MaxNameWireLen {
				return 0, false
			}
			for _, x := range b[off+1 : off+1+c] {
				if x >= 0x80 || x == '.' {
					return 0, false
				}
			}
			off += 1 + c
		case c >= 0xC0 && compressed:
			if off+1 >= len(b) {
				return 0, false
			}
			ptr := (c&0x3F)<<8 | int(b[off+1])
			if next < 0 {
				next = off + 2
			}
			if ptr >= minPtr {
				return 0, false
			}
			minPtr = ptr
			off = ptr
		default:
			// Reserved label type, or a pointer where none is viewable.
			return 0, false
		}
	}
}
