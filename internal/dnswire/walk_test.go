package dnswire_test

import (
	"bytes"
	"net/netip"
	"os"
	"path/filepath"
	"testing"

	"dnsguard/internal/ans"
	"dnsguard/internal/dnswire"
	"dnsguard/internal/netsim"
	"dnsguard/internal/vclock"
	"dnsguard/internal/zone"
)

// referralZone delegates www.foo.com to three servers: two with in-zone glue
// (one dual-stack) and one out of zone, so its referral carries NS targets
// compressed against the question, A and AAAA glue, and an unglued NS.
const referralZone = `$ORIGIN foo.com.
$TTL 3600
@        IN SOA ns admin.foo.com. ( 1 7200 600 360000 60 )
@        IN NS  ns
ns       IN A   192.0.2.1
www      IN NS  ns1.www
www      IN NS  ns2.www
www      IN NS  ns.example.net.
ns1.www  IN A   198.51.100.1
ns2.www  IN A   198.51.100.2
ns2.www  IN AAAA 2001:db8::2
mail     IN A   198.51.100.11
@        IN MX  10 mail
txt      IN TXT "one" "two"
`

// ansWires returns the repository ANS's packed responses for a spread of
// questions against referralZone: referrals with glue, an answer, NXDOMAIN
// and NODATA with the SOA, MX and TXT answers.
func ansWires(tb testing.TB) [][]byte {
	tb.Helper()
	z, err := zone.Parse(referralZone, dnswire.MustName("foo.com"))
	if err != nil {
		tb.Fatal(err)
	}
	host := netsim.New(vclock.New(1), 0).AddHost("ans", netip.MustParseAddr("192.0.2.1"))
	srv, err := ans.New(ans.Config{Env: host, Zone: z})
	if err != nil {
		tb.Fatal(err)
	}
	var out [][]byte
	for _, q := range []struct {
		name string
		t    dnswire.Type
	}{
		{"www.foo.com", dnswire.TypeA},
		{"a.b.www.foo.com", dnswire.TypeAAAA},
		{"mail.foo.com", dnswire.TypeA},
		{"nope.foo.com", dnswire.TypeA},
		{"mail.foo.com", dnswire.TypeTXT},
		{"foo.com", dnswire.TypeMX},
		{"txt.foo.com", dnswire.TypeTXT},
	} {
		qm := dnswire.NewQuery(0x4242, dnswire.MustName(q.name), q.t)
		qm.Flags.RD = false
		qw, err := qm.Pack()
		if err != nil {
			tb.Fatal(err)
		}
		resp := srv.HandleQuery(qw)
		if resp == nil {
			tb.Fatalf("ANS dropped %s", q.name)
		}
		w, err := resp.PackUDP(dnswire.MaxUDPSize)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, w)
	}
	return out
}

// walkAgrees walks b and, when the walker accepts it, checks that Unpack
// accepts it too with the same records section by section: type, class,
// TTL, and the RDATA of address and opaque records. It reports whether the
// walker accepted.
func walkAgrees(tb testing.TB, b []byte) bool {
	tb.Helper()
	v, ok := dnswire.ParseView(b)
	if !ok {
		return false
	}
	w := v.Records()
	var got []dnswire.RRView
	for rr, ok := w.Next(); ok; rr, ok = w.Next() {
		got = append(got, rr)
	}
	if !w.Done() {
		return false
	}
	m, err := dnswire.Unpack(b)
	if err != nil {
		tb.Fatalf("walker accepted a message Unpack rejects (%v): %x", err, b)
	}
	var want []dnswire.RR
	var secs []dnswire.Section
	for i, sec := range [][]dnswire.RR{m.Answers, m.Authority, m.Additional} {
		for _, rr := range sec {
			want = append(want, rr)
			secs = append(secs, dnswire.Section(i+1))
		}
	}
	if len(got) != len(want) {
		tb.Fatalf("walker read %d records, Unpack %d: %x", len(got), len(want), b)
	}
	for i, rr := range got {
		ref := want[i]
		if rr.Section != secs[i] || rr.Type != ref.Type || rr.Class != ref.Class || rr.TTL != ref.TTL {
			tb.Fatalf("record %d: walker %v/%v/%v/%d, Unpack %v/%v/%v/%d", i,
				rr.Section, rr.Type, rr.Class, rr.TTL, secs[i], ref.Type, ref.Class, ref.TTL)
		}
		var data []byte
		switch d := ref.Data.(type) {
		case *dnswire.AData:
			a := d.Addr.As4()
			data = a[:]
		case *dnswire.AAAAData:
			a := d.Addr.As16()
			data = a[:]
		case *dnswire.Raw:
			data = d.Data
		default:
			continue
		}
		if !bytes.Equal(rr.Data, data) {
			tb.Fatalf("record %d RDATA: walker %x, Unpack %x", i, rr.Data, data)
		}
	}
	return true
}

// TestRecordsAgreeWithUnpack: every ANS response and every wire capture the
// walker accepts decodes identically under Unpack, and the ANS's own
// responses — compressed referrals included — are all walkable.
func TestRecordsAgreeWithUnpack(t *testing.T) {
	for i, w := range ansWires(t) {
		if !walkAgrees(t, w) {
			t.Errorf("ANS response %d not walkable: %x", i, w)
		}
	}
	paths, err := filepath.Glob(filepath.Join("testdata", "*.bin"))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if !walkAgrees(t, b) {
			t.Errorf("%s not walkable", p)
		}
	}
}

// TestRecordsReferralShape pins what the guard reads from a referral: NS
// records in authority, then the glue in additional, in wire order.
func TestRecordsReferralShape(t *testing.T) {
	v, ok := dnswire.ParseView(ansWires(t)[0])
	if !ok {
		t.Fatal("referral not viewable")
	}
	var got []string
	w := v.Records()
	for rr, ok := w.Next(); ok; rr, ok = w.Next() {
		s := rr.Type.String()
		if rr.Type == dnswire.TypeA {
			s += " " + netip.AddrFrom4([4]byte(rr.Data)).String()
		}
		got = append(got, s)
	}
	want := []string{"NS", "NS", "NS", "A 198.51.100.1", "A 198.51.100.2", "AAAA"}
	if !w.Done() || len(got) != len(want) {
		t.Fatalf("walk %v (done %v), want %v", got, w.Done(), want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("walk %v, want %v", got, want)
		}
	}
}

// TestRecordsReject pins the not-walkable cases: each stops the walk with
// Done false, whether or not Unpack would accept the message.
func TestRecordsReject(t *testing.T) {
	base := ansWires(t)[0]
	mutate := func(f func(b []byte) []byte) []byte {
		return f(append([]byte(nil), base...))
	}
	// Offsets into the referral: the question ends at q; the first NS
	// record's owner is at q, its RDLENGTH at q+10, and its target's first
	// label ("ns1", ahead of a pointer to the question) at q+12.
	v, _ := dnswire.ParseView(base)
	q := v.End()
	cases := map[string][]byte{
		"trailing byte":    append(append([]byte(nil), base...), 0),
		"truncated":        base[:len(base)-1],
		"extra count":      mutate(func(b []byte) []byte { b[11]++; return b }),
		"qdcount two":      mutate(func(b []byte) []byte { b[5] = 2; return b }),
		"forward pointer":  mutate(func(b []byte) []byte { b[q], b[q+1] = 0xC0, byte(q+2); return b }),
		"self pointer":     mutate(func(b []byte) []byte { b[q], b[q+1] = 0xC0, byte(q); return b }),
		"reserved label":   mutate(func(b []byte) []byte { b[q] = 0x80; return b }),
		"rdlen mismatch":   mutate(func(b []byte) []byte { b[q+11]++; return b }),
		"non-ascii target": mutate(func(b []byte) []byte { b[q+13] = 0xC3; return b }),
		"dotted target":    mutate(func(b []byte) []byte { b[q+13] = '.'; return b }),
	}
	for name, b := range cases {
		v, ok := dnswire.ParseView(b)
		if !ok {
			t.Errorf("%s: question no longer viewable", name)
			continue
		}
		w := v.Records()
		for _, ok := w.Next(); ok; _, ok = w.Next() {
		}
		if w.Done() {
			t.Errorf("%s: walker accepted %x", name, b)
		}
	}
	if w := (dnswire.RRWalker{}); w.Done() {
		t.Error("zero walker reports Done")
	}

	// Each ANS response with its last record's RDATA lengthened by one zero
	// byte: typed RDATA no longer decodes to exactly RDLENGTH, which Unpack
	// rejects, so the walker must too (TXT alone reads the byte as one more
	// empty string, and both accept).
	for i, b := range ansWires(t) {
		v, _ := dnswire.ParseView(b)
		w := v.Records()
		var last dnswire.RRView
		for rr, ok := w.Next(); ok; rr, ok = w.Next() {
			last = rr
		}
		at := len(b) - len(last.Data) - 2 // the last record's RDLENGTH
		long := append(append([]byte(nil), b...), 0)
		long[at], long[at+1] = byte((len(last.Data)+1)>>8), byte(len(last.Data)+1)
		if walkAgrees(t, long) != (last.Type == dnswire.TypeTXT) {
			t.Errorf("response %d (last record %v) lengthened: walker verdict wrong", i, last.Type)
		}
	}
}

// TestRecordsZeroAlloc pins a full walk of a referral at zero allocations.
func TestRecordsZeroAlloc(t *testing.T) {
	wire := ansWires(t)[0]
	var sink int
	if n := testing.AllocsPerRun(200, func() {
		v, _ := dnswire.ParseView(wire)
		w := v.Records()
		for rr, ok := w.Next(); ok; rr, ok = w.Next() {
			sink += len(rr.Data) + int(rr.TTL)
		}
		if !w.Done() {
			t.Fatal("walk failed")
		}
	}); n != 0 {
		t.Errorf("record walk allocates %.1f/op, want 0", n)
	}
	_ = sink
}

// FuzzRecordWalk cross-checks the record walker against Unpack on arbitrary
// bytes: whenever the walker reads a message to a clean end, Unpack must
// accept it with the same sections, types, classes, TTLs and address and
// opaque RDATA.
func FuzzRecordWalk(f *testing.F) {
	for _, w := range ansWires(f) {
		f.Add(w)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		walkAgrees(t, b)
	})
}
