package guard

import (
	"bytes"
	"net/netip"
	"testing"
	"time"

	"dnsguard/internal/ans"
	"dnsguard/internal/cpumodel"
	"dnsguard/internal/dnswire"
	"dnsguard/internal/netapi"
	"dnsguard/internal/netsim"
	"dnsguard/internal/vclock"
	"dnsguard/internal/zone"
)

// The fast path's contract is byte- and counter-equivalence with the
// materializing path. The golden replays (inline_golden_test.go and friends)
// pin the counters across full simulations; the tests here isolate the wire
// bytes — forwarded queries, fabricated replies, raw relays — and pin the
// whole verified cycle at zero allocations against stub I/O.

// sinkConn is a stub upstream socket capturing the last datagram written.
// resp is scratch for the response a test feeds back.
type sinkConn struct {
	buf   [dnswire.MaxUDPSize]byte
	n     int
	dst   netip.AddrPort
	wrote int
	resp  []byte
}

func (c *sinkConn) ReadFrom(timeout time.Duration) ([]byte, netip.AddrPort, error) {
	return nil, netip.AddrPort{}, netapi.ErrClosed
}

func (c *sinkConn) WriteTo(b []byte, to netip.AddrPort) error {
	c.n = copy(c.buf[:], b)
	c.dst = to
	c.wrote++
	return nil
}

func (c *sinkConn) LocalAddr() netip.AddrPort { return netip.AddrPort{} }
func (c *sinkConn) Close() error              { return nil }

// sinkIO is a stub capture interface recording the last reply emitted.
type sinkIO struct {
	buf      [dnswire.MaxUDPSize]byte
	n        int
	from, to netip.AddrPort
	wrote    int
}

func (io *sinkIO) Read(timeout time.Duration) (Packet, error) { return Packet{}, netapi.ErrClosed }

func (io *sinkIO) WriteFromTo(from, to netip.AddrPort, payload []byte) error {
	io.n = copy(io.buf[:], payload)
	io.from, io.to = from, to
	io.wrote++
	return nil
}

func (io *sinkIO) Close() error { return nil }

// fastHarness drives one shard directly — no engine start, no simulated
// network — with stub I/O on both sides, so tests can compare exact wires
// and count allocations without simulator noise.
type fastHarness struct {
	g  *Remote
	s  *remoteShard
	io *sinkIO
	up *sinkConn
}

func newFastHarness(t testing.TB, mutate func(*RemoteConfig)) *fastHarness {
	t.Helper()
	sched := vclock.New(1)
	network := netsim.New(sched, time.Millisecond)
	host := network.AddHost("guard", mustAddr("198.41.0.4"))
	io := &sinkIO{}
	cfg := RemoteConfig{
		Env:         host,
		IO:          io,
		PublicAddr:  mustAP("198.41.0.4:53"),
		ANSAddr:     mustAP("10.99.0.2:53"),
		Zone:        dnswire.Root,
		Auth:        testAuth(),
		FastPathTTL: time.Hour,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	g, err := NewRemote(cfg)
	if err != nil {
		t.Fatal(err)
	}
	up := &sinkConn{}
	g.shards[0].upstream = up
	return &fastHarness{g: g, s: g.shards[0], io: io, up: up}
}

// nsQueryWire packs a query for the fabricated name carrying src's cookie.
func (h *fastHarness) nsQueryWire(t testing.TB, src netip.Addr, child string, id uint16) []byte {
	t.Helper()
	c := h.g.cfg.Auth.Mint(src)
	fab, err := FabricateNSName(h.g.nsc, c, dnswire.MustName(child))
	if err != nil {
		t.Fatal(err)
	}
	wire, err := dnswire.NewQuery(id, fab, dnswire.TypeA).Pack()
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

// TestFastNSMatchesSlowPath sends the same cookie-labeled query twice: the
// first pass misses the verified cache and takes the materializing path, the
// second hits and takes the wire path. The forwarded queries must agree byte
// for byte (modulo transaction ID), and the fabricated NXDomain replies must
// agree exactly.
func TestFastNSMatchesSlowPath(t *testing.T) {
	h := newFastHarness(t, nil)
	src := mustAP("10.0.0.53:4444")
	query := h.nsQueryWire(t, src.Addr(), "www.foo.com", 0x1234)
	// Uppercase two hex chars of the cookie and the child's first letter so
	// the fast path's ASCII folding is exercised, not just passed through
	// (offset 12 is the first label's length octet).
	for _, off := range []int{15, 16, 23} {
		if query[off] >= 'a' && query[off] <= 'z' {
			query[off] -= 'a' - 'A'
		}
	}
	ans := h.g.cfg.ANSAddr

	exchange := func() (fwd, reply []byte) {
		h.s.HandlePacket(Packet{Src: src, Dst: h.g.cfg.PublicAddr, Payload: append([]byte(nil), query...)})
		if h.up.n == 0 {
			t.Fatal("no forward emitted")
		}
		fwd = append([]byte(nil), h.up.buf[:h.up.n]...)
		// Empty NXDomain response: flip QR and set the rcode on the echo.
		resp := append([]byte(nil), fwd...)
		resp[2] |= 0x80
		resp[3] |= byte(dnswire.RCodeNXDomain)
		h.s.handleUpstream(resp, ans)
		if h.io.n == 0 {
			t.Fatal("no reply emitted")
		}
		return fwd, append([]byte(nil), h.io.buf[:h.io.n]...)
	}

	slowFwd, slowReply := exchange()
	before := h.g.Stats.Load()
	fastFwd, fastReply := exchange()
	after := h.g.Stats.Load()
	if after.FastPathHits != before.FastPathHits+1 {
		t.Fatalf("second exchange did not take the fast path: hits %d -> %d", before.FastPathHits, after.FastPathHits)
	}
	if after.CookieValid != before.CookieValid+1 || after.RepliesToClient != before.RepliesToClient+1 {
		t.Errorf("fast exchange counters diverge: %+v -> %+v", before, after)
	}
	slowFwd[0], slowFwd[1], fastFwd[0], fastFwd[1] = 0, 0, 0, 0
	if !bytes.Equal(slowFwd, fastFwd) {
		t.Errorf("forwarded wires diverge:\nslow %x\nfast %x", slowFwd, fastFwd)
	}
	if !bytes.Equal(slowReply, fastReply) {
		t.Errorf("fabricated replies diverge:\nslow %x\nfast %x", slowReply, fastReply)
	}
	if h.up.dst != ans {
		t.Errorf("forward went to %v, want %v", h.up.dst, ans)
	}
	if h.io.from != h.g.cfg.PublicAddr || h.io.to != src {
		t.Errorf("reply addressed %v -> %v, want %v -> %v", h.io.from, h.io.to, h.g.cfg.PublicAddr, src)
	}
}

// TestFastEntryMaterializes: a response the fast upstream path cannot handle
// (it carries answers) must fall back to the materializing path and produce
// the full message-6 fabrication from the wire-only pending entry.
func TestFastEntryMaterializes(t *testing.T) {
	h := newFastHarness(t, func(cfg *RemoteConfig) {
		cfg.Subnet = netip.MustParsePrefix("203.0.113.0/24")
	})
	src := mustAP("10.0.0.53:4444")
	query := h.nsQueryWire(t, src.Addr(), "www.foo.com", 0x77)

	// Warm the cache (slow exchange), then forward the same query fast.
	h.s.HandlePacket(Packet{Src: src, Dst: h.g.cfg.PublicAddr, Payload: append([]byte(nil), query...)})
	warm := append([]byte(nil), h.up.buf[:h.up.n]...)
	warm[2] |= 0x80
	h.s.handleUpstream(warm, h.g.cfg.ANSAddr)

	before := h.g.Stats.Load()
	h.s.HandlePacket(Packet{Src: src, Dst: h.g.cfg.PublicAddr, Payload: append([]byte(nil), query...)})
	if h.g.Stats.Load().FastPathHits != before.FastPathHits+1 {
		t.Fatal("query did not take the fast path")
	}
	fwd, err := dnswire.Unpack(h.up.buf[:h.up.n])
	if err != nil {
		t.Fatal(err)
	}
	if fwd.Questions[0].Name != dnswire.MustName("www.foo.com") {
		t.Fatalf("forwarded question %v", fwd.Questions[0])
	}

	// Answer with a real A record: the fast consume must bail and the
	// materializing path must fabricate the IP-cookie answer (§III-B.2).
	resp := fwd.Response()
	resp.Flags.AA = true
	resp.Answers = []dnswire.RR{dnswire.NewRR(fwd.Questions[0].Name, 300, &dnswire.AData{Addr: mustAddr("198.51.100.10")})}
	wire, err := resp.Pack()
	if err != nil {
		t.Fatal(err)
	}
	h.s.handleUpstream(wire, h.g.cfg.ANSAddr)
	reply, err := dnswire.Unpack(h.io.buf[:h.io.n])
	if err != nil {
		t.Fatal(err)
	}
	if reply.ID != 0x77 || !reply.Flags.QR || !reply.Flags.AA || reply.Flags.RCode != dnswire.RCodeNoError {
		t.Fatalf("fabricated reply header %+v", reply)
	}
	if len(reply.Answers) != 1 || reply.Answers[0].Type != dnswire.TypeA {
		t.Fatalf("fabricated reply answers %+v", reply.Answers)
	}
	addr := reply.Answers[0].Data.(*dnswire.AData).Addr
	if !h.g.cfg.Subnet.Contains(addr) {
		t.Errorf("cookie address %v outside subnet %v", addr, h.g.cfg.Subnet)
	}
	q, err := dnswire.Unpack(query)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Questions[0] != q.Questions[0] {
		t.Errorf("reply question %+v, want client question %+v", reply.Questions[0], q.Questions[0])
	}
}

// TestFastPassthroughRelay: with detection inactive, a canonical-case query
// is relayed raw with only the transaction ID rewritten, and the response is
// relayed back raw under the client's original ID.
func TestFastPassthroughRelay(t *testing.T) {
	h := newFastHarness(t, func(cfg *RemoteConfig) {
		cfg.ActivationThreshold = 1e12 // never activates: all passthrough
	})
	src := mustAP("10.0.0.53:5555")
	query, err := dnswire.NewQuery(0xBEEF, dnswire.MustName("www.foo.com"), dnswire.TypeA).Pack()
	if err != nil {
		t.Fatal(err)
	}
	payload := append([]byte(nil), query...)
	h.s.HandlePacket(Packet{Src: src, Dst: h.g.cfg.PublicAddr, Payload: payload})
	st := h.g.Stats.Load()
	if st.Passthrough != 1 || st.ForwardedToANS != 1 {
		t.Fatalf("passthrough counters %+v", st)
	}
	fwd := append([]byte(nil), h.up.buf[:h.up.n]...)
	want := append([]byte(nil), query...)
	want[0], want[1] = fwd[0], fwd[1] // only the ID may differ
	if !bytes.Equal(fwd, want) {
		t.Errorf("relayed query not raw:\ngot  %x\nwant %x", fwd, want)
	}

	resp := append([]byte(nil), fwd...)
	resp[2] |= 0x80
	h.s.handleUpstream(resp, h.g.cfg.ANSAddr)
	reply := h.io.buf[:h.io.n]
	wantReply := append([]byte(nil), resp...)
	wantReply[0], wantReply[1] = 0xBE, 0xEF
	if !bytes.Equal(reply, wantReply) {
		t.Errorf("relayed response not raw:\ngot  %x\nwant %x", reply, wantReply)
	}
	if h.g.Stats.Load().RepliesToClient != 1 {
		t.Errorf("RepliesToClient = %d", h.g.Stats.Load().RepliesToClient)
	}
}

// TestFastPathWireAllocs pins the whole verified cycle — cookie query in,
// rewritten forward out, response in, fabricated reply out — at zero
// allocations against stub I/O, for both the empty NXDOMAIN and the
// NS-plus-glue referral response, and the inactive passthrough relay
// likewise.
// Real transports add their own syscall-side cost; the bench harness gates
// the end-to-end figure (≤ 2 allocs/packet) separately.
func TestFastPathWireAllocs(t *testing.T) {
	h := newFastHarness(t, nil)
	src := mustAP("10.0.0.53:4444")
	query := h.nsQueryWire(t, src.Addr(), "www.foo.com", 0x42)
	ans := h.g.cfg.ANSAddr
	pkt := Packet{Src: src, Dst: h.g.cfg.PublicAddr, Payload: query}

	// Warm: one slow exchange installs the verified entry and sizes the
	// entry-pool buffers.
	h.s.HandlePacket(pkt)
	resp := make([]byte, 0, dnswire.MaxUDPSize)
	consume := func() {
		resp = append(resp[:0], h.up.buf[:h.up.n]...)
		resp[2] |= 0x80
		resp[3] |= byte(dnswire.RCodeNXDomain)
		h.s.handleUpstream(resp, ans)
	}
	consume()

	if n := testing.AllocsPerRun(200, func() {
		h.s.HandlePacket(pkt)
		consume()
	}); n != 0 {
		t.Errorf("verified NS cycle allocates %.1f/op, want 0", n)
	}

	rh, _ := newReferralHarness(t)
	rquery := rh.nsQueryWire(t, src.Addr(), "www.foo.com", 0x44)
	referral := packResponse(t, func(m *dnswire.Message) {
		m.Authority = []dnswire.RR{nsRR("www.foo.com", "ns1.www.foo.com")}
		m.Additional = []dnswire.RR{aRR("ns1.www.foo.com", 172800, "198.51.100.1")}
	})
	rh.cycle(src, rquery, referral, false) // warm: verifies the source
	if n := testing.AllocsPerRun(200, func() {
		rh.cycle(src, rquery, referral, false)
	}); n != 0 {
		t.Errorf("verified referral cycle allocates %.1f/op, want 0", n)
	}
	if reply, err := dnswire.Unpack(rh.io.buf[:rh.io.n]); err != nil || len(reply.Answers) != 1 {
		t.Errorf("referral cycle reply %v (%v), want one glue answer", reply, err)
	}

	hp := newFastHarness(t, func(cfg *RemoteConfig) {
		cfg.ActivationThreshold = 1e12
	})
	plain, err := dnswire.NewQuery(0x43, dnswire.MustName("www.foo.com"), dnswire.TypeA).Pack()
	if err != nil {
		t.Fatal(err)
	}
	ppkt := Packet{Src: src, Dst: hp.g.cfg.PublicAddr, Payload: plain}
	hp.s.HandlePacket(ppkt)
	presp := make([]byte, 0, dnswire.MaxUDPSize)
	pconsume := func() {
		presp = append(presp[:0], hp.up.buf[:hp.up.n]...)
		presp[2] |= 0x80
		hp.s.handleUpstream(presp, hp.g.cfg.ANSAddr)
	}
	pconsume()
	if n := testing.AllocsPerRun(200, func() {
		hp.s.HandlePacket(ppkt)
		pconsume()
	}); n != 0 {
		t.Errorf("passthrough relay cycle allocates %.1f/op, want 0", n)
	}
}

// workMeter is a CPUWorker that sums every charge, so the equivalence tests
// compare CPU charges as well as counters.
type workMeter struct {
	total time.Duration
	calls int
}

func (m *workMeter) Work(d time.Duration) { m.total += d; m.calls++ }

// newReferralHarness is a fastHarness with every answerChild arm live (a
// cookie subnet for the IP-cookie arm) and CPU charges metered, each cost
// distinct so a missing or extra charge shows in the total.
func newReferralHarness(t testing.TB) (*fastHarness, *workMeter) {
	meter := &workMeter{}
	h := newFastHarness(t, func(cfg *RemoteConfig) {
		cfg.Subnet = netip.MustParsePrefix("203.0.113.0/24")
		cfg.CPU = meter
		cfg.Costs = cpumodel.GuardCosts{
			PacketOp:    time.Microsecond,
			CookieCheck: 10 * time.Microsecond,
			CookieGrant: 100 * time.Microsecond,
			Rewrite:     1000 * time.Microsecond,
		}
	})
	return h, meter
}

// cycle sends query from src, then answers the forward with resp under the
// forwarded transaction ID (resp's own ID is overwritten). With materialize
// set, the pending entry is first decoded and taken off the wire arm, so
// the response runs through the Unpack arm exactly as a response the wire
// arm bailed on would.
func (h *fastHarness) cycle(src netip.AddrPort, query, resp []byte, materialize bool) {
	h.s.HandlePacket(Packet{Src: src, Dst: h.g.cfg.PublicAddr, Payload: query})
	id := uint16(h.up.buf[0])<<8 | uint16(h.up.buf[1])
	if materialize {
		h.s.mu.Lock()
		if e := h.s.pending[id]; e != nil && e.fast {
			h.s.materializeFastLocked(e)
			e.fast = false
		}
		h.s.mu.Unlock()
	}
	r := append(h.up.resp[:0], resp...)
	if len(r) >= 2 {
		r[0], r[1] = byte(id>>8), byte(id)
	}
	h.up.resp = r
	h.s.handleUpstream(r, h.g.cfg.ANSAddr)
}

// packResponse packs the ANS's response to the guard's forwarded question
// (A? www.foo.com, RD clear) after edit fills in its records.
func packResponse(t testing.TB, edit func(m *dnswire.Message)) []byte {
	t.Helper()
	q := dnswire.NewQuery(0, dnswire.MustName("www.foo.com"), dnswire.TypeA)
	q.Flags.RD = false
	m := q.Response()
	edit(m)
	wire, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

func nsRR(owner, host string) dnswire.RR {
	return dnswire.NewRR(dnswire.MustName(owner), 172800, &dnswire.NSData{Host: dnswire.MustName(host)})
}

func aRR(owner string, ttl uint32, addr string) dnswire.RR {
	return dnswire.NewRR(dnswire.MustName(owner), ttl, &dnswire.AData{Addr: mustAddr(addr)})
}

// referralCase is an ANS response to the forwarded child query. fast says
// whether the wire arm must commit; rcode and answers describe the reply
// either arm emits.
type referralCase struct {
	name    string
	resp    []byte
	fast    bool
	rcode   dnswire.RCode
	answers int
}

// referralCases has one response per answerChild arm and per wire-arm bail
// reason.
func referralCases(t testing.TB) []referralCase {
	glue := func(n int) []dnswire.RR {
		var rrs []dnswire.RR
		for i := 0; i < n; i++ {
			rrs = append(rrs, aRR("ns1.www.foo.com", uint32(3600+i), netip.AddrFrom4([4]byte{198, 51, byte(i >> 8), byte(1 + i)}).String()))
		}
		return rrs
	}
	referral := func(nGlue int) func(m *dnswire.Message) {
		return func(m *dnswire.Message) {
			m.Authority = []dnswire.RR{nsRR("www.foo.com", "ns1.www.foo.com")}
			m.Additional = glue(nGlue)
		}
	}
	soa := dnswire.NewRR(dnswire.MustName("foo.com"), 60, &dnswire.SOAData{
		MName: dnswire.MustName("ns.foo.com"), RName: dnswire.MustName("admin.foo.com"), Serial: 1, Minimum: 60})
	mixedCase := packResponse(t, referral(1))
	mixedCase[13] = 'W' // first question label "www" → "Www"
	return []referralCase{
		{"referral one glue", packResponse(t, referral(1)), true, dnswire.RCodeNoError, 1},
		{"referral three glue", packResponse(t, func(m *dnswire.Message) {
			m.Authority = []dnswire.RR{nsRR("www.foo.com", "ns1.www.foo.com"),
				nsRR("www.foo.com", "ns2.www.foo.com"), nsRR("www.foo.com", "ns.example.net")}
			m.Additional = []dnswire.RR{aRR("ns1.www.foo.com", 300, "198.51.100.1"),
				aRR("ns2.www.foo.com", 600, "198.51.100.2"), aRR("ns.example.net", 900, "192.0.2.53")}
		}), true, dnswire.RCodeNoError, 3},
		{"referral no glue", packResponse(t, referral(0)), true, dnswire.RCodeServFail, 0},
		{"referral with AAAA, TXT and OPT additionals", packResponse(t, func(m *dnswire.Message) {
			m.Authority = []dnswire.RR{nsRR("www.foo.com", "ns1.www.foo.com"), nsRR("www.foo.com", "ns2.www.foo.com")}
			m.Additional = []dnswire.RR{
				dnswire.NewRR(dnswire.MustName("ns1.www.foo.com"), 60, &dnswire.AAAAData{Addr: mustAddr("2001:db8::1")}),
				aRR("ns1.www.foo.com", 60, "198.51.100.1"),
				dnswire.NewRR(dnswire.MustName("ns2.www.foo.com"), 60, &dnswire.TXTData{Strings: [][]byte{[]byte("x")}}),
				aRR("ns2.www.foo.com", 70, "198.51.100.2"),
				{Name: dnswire.Root, Type: dnswire.TypeOPT, Class: 4096, Data: &dnswire.Raw{}},
			}
		}), true, dnswire.RCodeNoError, 2},
		{"nxdomain empty", packResponse(t, func(m *dnswire.Message) {
			m.Flags.RCode = dnswire.RCodeNXDomain
		}), true, dnswire.RCodeNXDomain, 0},
		{"nxdomain with glue-like additional", packResponse(t, func(m *dnswire.Message) {
			m.Flags.RCode = dnswire.RCodeNXDomain
			m.Additional = glue(2)
		}), true, dnswire.RCodeNXDomain, 0},
		{"empty noerror", packResponse(t, func(m *dnswire.Message) {}), true, dnswire.RCodeServFail, 0},
		{"additional without authority", packResponse(t, func(m *dnswire.Message) {
			m.Additional = glue(1)
		}), true, dnswire.RCodeServFail, 0},
		{"nxdomain with SOA", packResponse(t, func(m *dnswire.Message) {
			m.Flags.RCode = dnswire.RCodeNXDomain
			m.Authority = []dnswire.RR{soa}
		}), false, dnswire.RCodeNXDomain, 0},
		{"nxdomain with NS authority", packResponse(t, func(m *dnswire.Message) {
			referral(1)(m)
			m.Flags.RCode = dnswire.RCodeNXDomain
		}), false, dnswire.RCodeNXDomain, 0},
		{"non-NS authority with glue", packResponse(t, func(m *dnswire.Message) {
			m.Authority = []dnswire.RR{dnswire.NewRR(dnswire.MustName("www.foo.com"), 60,
				&dnswire.CNAMEData{Target: dnswire.MustName("ns1.www.foo.com")})}
			m.Additional = glue(1)
		}), false, dnswire.RCodeServFail, 0},
		{"nodata with SOA", packResponse(t, func(m *dnswire.Message) {
			m.Authority = []dnswire.RR{soa}
		}), false, dnswire.RCodeServFail, 0},
		{"answer", packResponse(t, func(m *dnswire.Message) {
			m.Answers = []dnswire.RR{aRR("www.foo.com", 300, "198.51.100.10")}
		}), false, dnswire.RCodeNoError, 1},
		{"glue of class CH", packResponse(t, func(m *dnswire.Message) {
			referral(1)(m)
			m.Additional[0].Class = 3
		}), false, dnswire.RCodeNoError, 1},
		{"mixed-case echo", mixedCase, false, dnswire.RCodeNoError, 1},
		// 40 glue answers overflow 512 bytes: PackUDP truncates the
		// fabricated reply (TC set, answers dropped), so the wire arm bails.
		{"reply over 512 bytes", packResponse(t, referral(40)), false, dnswire.RCodeNoError, 29},
	}
}

// TestFastReferralMatchesSlowPath runs each ANS response shape through two
// identical guards: one consumes it on the wire arm where it can, the other
// is forced through the materializing arm. Emitted wires, counters, CPU
// charges and the pending table must agree exactly, and the wire arm must
// commit precisely on the shapes it claims (checked by allocation count:
// only the Unpack arm allocates).
func TestFastReferralMatchesSlowPath(t *testing.T) {
	src := mustAP("10.0.0.53:4444")
	for _, tc := range referralCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			fast, fastCPU := newReferralHarness(t)
			slow, slowCPU := newReferralHarness(t)
			query := fast.nsQueryWire(t, src.Addr(), "www.foo.com", 0x5151)
			fast.cycle(src, query, tc.resp, false) // warm: verifies the source
			slow.cycle(src, query, tc.resp, false)
			allocs := testing.AllocsPerRun(4, func() { fast.cycle(src, query, tc.resp, false) })
			for i := 0; i < 5; i++ {
				slow.cycle(src, query, tc.resp, true)
			}
			if committed := allocs == 0; committed != tc.fast {
				t.Errorf("wire arm committed = %v (%.1f allocs/cycle), want %v", committed, allocs, tc.fast)
			}
			assertSameGuard(t, fast, slow, fastCPU, slowCPU)
			reply, err := dnswire.Unpack(fast.io.buf[:fast.io.n])
			if err != nil {
				t.Fatal(err)
			}
			if reply.ID != 0x5151 || reply.Flags.RCode != tc.rcode || len(reply.Answers) != tc.answers {
				t.Errorf("reply id %#x rcode %v with %d answers, want %v with %d",
					reply.ID, reply.Flags.RCode, len(reply.Answers), tc.rcode, tc.answers)
			}
		})
	}
}

// assertSameGuard fails unless two guards emitted the same last reply and
// forward, the same number of each, and agree on every counter, every CPU
// charge, and the pending-table size.
func assertSameGuard(t testing.TB, a, b *fastHarness, acpu, bcpu *workMeter) {
	t.Helper()
	if !bytes.Equal(a.io.buf[:a.io.n], b.io.buf[:b.io.n]) || a.io.wrote != b.io.wrote {
		t.Errorf("replies diverge (%d vs %d written):\nwire %x\nslow %x",
			a.io.wrote, b.io.wrote, a.io.buf[:a.io.n], b.io.buf[:b.io.n])
	}
	if !bytes.Equal(a.up.buf[:a.up.n], b.up.buf[:b.up.n]) || a.up.wrote != b.up.wrote {
		t.Errorf("forwards diverge (%d vs %d written)", a.up.wrote, b.up.wrote)
	}
	if as, bs := a.g.Stats.Load(), b.g.Stats.Load(); as != bs {
		t.Errorf("counters diverge:\nwire %+v\nslow %+v", as, bs)
	}
	if *acpu != *bcpu {
		t.Errorf("CPU charges diverge: wire %+v, slow %+v", *acpu, *bcpu)
	}
	if ap, bp := a.g.PendingEntries(), b.g.PendingEntries(); ap != bp {
		t.Errorf("pending entries diverge: wire %d, slow %d", ap, bp)
	}
}

// referralSeeds are the repository ANS's own responses to the guard's
// forwarded question: a referral with compressed in-zone NS targets, A and
// AAAA glue and an unglued out-of-zone NS, plus an answer and NXDOMAIN.
func referralSeeds(t testing.TB) [][]byte {
	t.Helper()
	z, err := zone.Parse(`$ORIGIN foo.com.
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
`, dnswire.MustName("foo.com"))
	if err != nil {
		t.Fatal(err)
	}
	host := netsim.New(vclock.New(1), 0).AddHost("ans", mustAddr("10.99.0.2"))
	srv, err := ans.New(ans.Config{Env: host, Zone: z})
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	for _, name := range []string{"www.foo.com", "mail.foo.com", "nope.foo.com"} {
		q := dnswire.NewQuery(0, dnswire.MustName(name), dnswire.TypeA)
		q.Flags.RD = false
		qw, err := q.Pack()
		if err != nil {
			t.Fatal(err)
		}
		w, err := srv.HandleQuery(qw).PackUDP(dnswire.MaxUDPSize)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, w)
	}
	return out
}

// FuzzReferralDifferential feeds arbitrary ANS response bytes, under the
// forwarded transaction ID, to one pending fast entry in each of two
// identical guards: one consumes it on the wire arm where it can, the other
// through the materializing arm. Emitted wires, counters, CPU charges and
// the pending table must agree.
func FuzzReferralDifferential(f *testing.F) {
	for _, w := range referralSeeds(f) {
		f.Add(w)
	}
	for _, tc := range referralCases(f) {
		f.Add(tc.resp)
	}
	src := mustAP("10.0.0.53:4444")
	warm := packResponse(f, func(m *dnswire.Message) { m.Flags.RCode = dnswire.RCodeNXDomain })
	f.Fuzz(func(t *testing.T, resp []byte) {
		fast, fastCPU := newReferralHarness(t)
		slow, slowCPU := newReferralHarness(t)
		query := fast.nsQueryWire(t, src.Addr(), "www.foo.com", 0x5151)
		fast.cycle(src, query, warm, false)
		slow.cycle(src, query, warm, false)
		fast.cycle(src, query, resp, false)
		slow.cycle(src, query, resp, true)
		assertSameGuard(t, fast, slow, fastCPU, slowCPU)
	})
}
