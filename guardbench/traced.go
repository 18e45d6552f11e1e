package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/netip"
	"os"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"dnsguard"
	"dnsguard/internal/cookie"
	"dnsguard/internal/guard"
	"dnsguard/internal/netapi"
	"dnsguard/internal/realnet"
)

// The traced guard is this binary re-executed as the guard. It assembles
// the guard exactly as dnsguardd does, through the same public
// constructors, and records spans only through interfaces the program
// already exposes: a decorating netapi.Env and its UDP sockets, a
// decorating cookie.MACScheme, and RemoteConfig.Observer.
//
// Time is the process's CPU clock, not the wall clock: the guard shares its
// vCPU with the load generator, so wall time inside a span would include
// the generator's turns. The guard runs with one P, so its two busy
// goroutines — the engine's ingress loop and the upstream loop — never run
// at once, and the CPU between two trace events belongs to whichever
// activity the event's goroutine was in. When the event comes from the
// other goroutine, the interval went to parking one goroutine and waking
// the other, and is charged to "runtime", which no layer owns.

const (
	actRuntime = iota
	actReadIn
	actReadUp
	actWrite
	actMAC
	actHandle
	actUpstream
	nAct
)

var actNames = [nAct]string{"runtime", "realnet.read_ingress", "realnet.read_upstream", "realnet.write",
	"cookie.mac", "engine.handle", "guard.upstream"}

// Goroutine contexts. Which goroutine makes a call is known from the call:
// ingress reads, Observer, MAC, upstream-socket writes (forwards) and
// ingress batch writes (flushed grants) run on the engine's loop; upstream
// reads and ingress single writes (replies) run on the upstream loop. This
// holds for batched ingress (guardBatch > 1), the only deployment traced.
const (
	ctxIngress  = 0
	ctxUpstream = 1
)

const spanCap = 1 << 17

// span is one traced interval. op is the client address and DNS ID the
// interval served (0 when it served a whole batch); upID is the guard's
// upstream transaction ID on forwards; parent indexes the enclosing span.
type span struct {
	op         uint64
	start, end int64 // process CPU ns
	parent     int32
	upID       uint16
	act        uint8
}

type ledgerCounts struct {
	CPU      [nAct]int64 `json:"cpu_ns"`
	ProcCPU  int64       `json:"proc_cpu_ns"`
	Pkts     int64       `json:"pkts"`
	InReads  int64       `json:"ingress_reads"`
	InPkts   int64       `json:"ingress_pkts"`
	UpResps  int64       `json:"upstream_resps"`
	Writes   int64       `json:"writes"`
	MACCalls int64       `json:"mac_calls"`
	Mallocs  uint64      `json:"mallocs"`
	GCCPU    float64     `json:"gc_cpu_s"`
	TotalCPU float64     `json:"total_cpu_s"`
}

type tracer struct {
	mu    sync.Mutex
	rec   bool // spans are recorded from the first mark on
	last  int64
	lastG int
	cur   [2]int
	open  [2]int32 // open handle/upstream span per context, -1 none
	c     ledgerCounts
	spans []span
}

func newTracer() *tracer {
	return &tracer{spans: make([]span, 0, spanCap), open: [2]int32{-1, -1}, last: cpuNow()}
}

// event charges the CPU since the previous event and switches ctx to act.
// Callers hold t.mu.
func (t *tracer) event(ctx, act int) int64 {
	now := cpuNow()
	if ctx == t.lastG {
		t.c.CPU[t.cur[ctx]] += now - t.last
	} else {
		t.c.CPU[actRuntime] += now - t.last
	}
	t.last, t.lastG, t.cur[ctx] = now, ctx, act
	return now
}

func (t *tracer) begin(act int, op uint64, parent int32, now int64) int32 {
	if !t.rec || len(t.spans) == cap(t.spans) {
		return -1
	}
	t.spans = append(t.spans, span{op: op, start: now, parent: parent, act: uint8(act)})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(i int32, now int64) {
	if i >= 0 {
		t.spans[i].end = now
	}
}

// closeOpen ends ctx's open handle or upstream span.
func (t *tracer) closeOpen(ctx int, now int64) {
	t.end(t.open[ctx], now)
	t.open[ctx] = -1
}

func opKey(a netip.AddrPort, id uint16) uint64 {
	b := a.Addr().As4()
	return uint64(b[0])<<56 | uint64(b[1])<<48 | uint64(b[2])<<40 | uint64(b[3])<<32 | uint64(a.Port())<<16 | uint64(id)
}

func dnsID(b []byte) uint16 {
	if len(b) < 2 {
		return 0
	}
	return uint16(b[0])<<8 | uint16(b[1])
}

// observe is RemoteConfig.Observer: one packet's handling starts.
func (t *tracer) observe(_ int, pkt guard.Packet) {
	t.mu.Lock()
	now := t.event(ctxIngress, actHandle)
	t.closeOpen(ctxIngress, now)
	t.open[ctxIngress] = t.begin(actHandle, opKey(pkt.Src, dnsID(pkt.Payload)), -1, now)
	t.c.Pkts++
	t.mu.Unlock()
}

func (t *tracer) readEnter(ingress bool) (int32, int) {
	ctx, act := ctxUpstream, actReadUp
	if ingress {
		ctx, act = ctxIngress, actReadIn
	}
	t.mu.Lock()
	now := t.event(ctx, act)
	t.closeOpen(ctx, now)
	i := t.begin(act, 0, -1, now)
	t.mu.Unlock()
	return i, ctx
}

func (t *tracer) readExit(i int32, ctx, n int) {
	after := actHandle
	if ctx == ctxUpstream {
		after = actUpstream
	}
	t.mu.Lock()
	now := t.event(ctx, after)
	t.end(i, now)
	if n > 0 {
		if ctx == ctxIngress {
			t.c.InReads++
			t.c.InPkts += int64(n)
		} else {
			t.c.UpResps += int64(n)
			t.open[ctx] = t.begin(actUpstream, 0, -1, now)
		}
	}
	t.mu.Unlock()
}

// writeEnter starts a write span. A reply write from the upstream loop ends
// that response's upstream span, which takes the reply's op.
func (t *tracer) writeEnter(ctx int, op uint64, upID uint16) (int32, int) {
	t.mu.Lock()
	prev := t.cur[ctx]
	now := t.event(ctx, actWrite)
	parent := t.open[ctx]
	if ctx == ctxUpstream && parent >= 0 {
		t.spans[parent].op = op
		t.closeOpen(ctx, now)
		parent = -1
	}
	i := t.begin(actWrite, op, parent, now)
	if i >= 0 {
		t.spans[i].upID = upID
	}
	t.c.Writes++
	t.mu.Unlock()
	return i, prev
}

func (t *tracer) writeExit(i int32, ctx, prev int) {
	t.mu.Lock()
	now := t.event(ctx, prev)
	t.end(i, now)
	if ctx == ctxUpstream && prev == actUpstream {
		t.open[ctx] = t.begin(actUpstream, 0, -1, now)
	}
	t.mu.Unlock()
}

// snapshot returns the ledger so far; the first one starts span recording.
func (t *tracer) snapshot() ledgerCounts {
	t.mu.Lock()
	t.event(t.lastG, t.cur[t.lastG])
	t.rec = true
	c := t.c
	t.mu.Unlock()
	c.ProcCPU = cpuNow()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.Mallocs = ms.Mallocs
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 && s[1].Value.Kind() == metrics.KindFloat64 {
		c.GCCPU, c.TotalCPU = s[0].Value.Float64(), s[1].Value.Float64()
	}
	return c
}

// writeSpans writes every recorded span as CSV.
func (t *tracer) writeSpans(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,parent,layer,op_src,op_port,op_dns_id,upstream_id,start_cpu_ns,end_cpu_ns")
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d,%d,%s,%d.%d.%d.%d,%d,%d,%d,%d,%d\n", i, s.parent, actNames[s.act],
			byte(s.op>>56), byte(s.op>>48), byte(s.op>>40), byte(s.op>>32), uint16(s.op>>16), uint16(s.op),
			s.upID, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedMAC decorates the keyring's MAC scheme. The keyring dispatches the
// built-in schemes concretely; any other scheme, this one included, goes
// through an interface call whose output cookie escapes to the heap. The
// traced guard therefore makes exactly one allocation per MAC call that
// dnsguardd does not, and guard.allocs_per_op subtracts it.
type tracedMAC struct {
	inner cookie.MACScheme
	t     *tracer
}

func (m tracedMAC) Name() string { return m.inner.Name() }

func (m tracedMAC) MAC(key *[cookie.KeySize]byte, src netip.Addr, c *cookie.Cookie) {
	t := m.t
	t.mu.Lock()
	prev := t.cur[ctxIngress]
	now := t.event(ctxIngress, actMAC)
	i := t.begin(actMAC, 0, t.open[ctxIngress], now)
	if i >= 0 && t.spans[i].parent >= 0 {
		t.spans[i].op = t.spans[t.spans[i].parent].op
	}
	t.c.MACCalls++
	t.mu.Unlock()
	m.inner.MAC(key, src, c)
	t.mu.Lock()
	t.end(i, t.event(ctxIngress, prev))
	t.mu.Unlock()
}

// tracedEnv decorates the real environment: every capability of
// *realnet.Env is promoted unchanged, and the two socket constructors wrap
// what they return.
type tracedEnv struct {
	*realnet.Env
	t *tracer
}

func (e *tracedEnv) ListenUDP(addr netip.AddrPort) (netapi.UDPConn, error) {
	c, err := e.Env.ListenUDP(addr)
	if err != nil {
		return nil, err
	}
	return wrapConn(c, false, e.t)
}

func (e *tracedEnv) ListenUDPReuse(addr netip.AddrPort, n int) ([]netapi.UDPConn, error) {
	cs, err := e.Env.ListenUDPReuse(addr, n)
	if err != nil {
		return nil, err
	}
	for i, c := range cs {
		if cs[i], err = wrapConn(c, true, e.t); err != nil {
			return nil, err
		}
	}
	return cs, nil
}

// tracedConn decorates one UDP socket and passes through every capability
// the guard detects on it: BatchConn, FlowStableConn and SetReadBuffer.
type tracedConn struct {
	inner   netapi.UDPConn
	batch   netapi.BatchConn
	flow    netapi.FlowStableConn
	ingress bool
	t       *tracer
}

func wrapConn(c netapi.UDPConn, ingress bool, t *tracer) (*tracedConn, error) {
	bc, ok := c.(netapi.BatchConn)
	if !ok {
		return nil, errors.New("socket lacks batch I/O; the traced guard would take another path than dnsguardd")
	}
	fs, ok := c.(netapi.FlowStableConn)
	if !ok {
		return nil, errors.New("socket does not report flow stability")
	}
	return &tracedConn{inner: c, batch: bc, flow: fs, ingress: ingress, t: t}, nil
}

func (c *tracedConn) FlowStable() bool { return c.flow.FlowStable() }

func (c *tracedConn) SetReadBuffer(n int) error {
	if rb, ok := c.inner.(interface{ SetReadBuffer(int) error }); ok {
		return rb.SetReadBuffer(n)
	}
	return errors.New("socket has no settable receive buffer")
}

func (c *tracedConn) LocalAddr() netip.AddrPort { return c.inner.LocalAddr() }
func (c *tracedConn) Close() error              { return c.inner.Close() }

func (c *tracedConn) ReadFrom(timeout time.Duration) ([]byte, netip.AddrPort, error) {
	i, ctx := c.t.readEnter(c.ingress)
	b, from, err := c.inner.ReadFrom(timeout)
	n := 1
	if err != nil {
		n = 0
	}
	c.t.readExit(i, ctx, n)
	return b, from, err
}

func (c *tracedConn) ReadBatch(msgs []netapi.Datagram, timeout time.Duration) (int, error) {
	i, ctx := c.t.readEnter(c.ingress)
	n, err := c.batch.ReadBatch(msgs, timeout)
	c.t.readExit(i, ctx, n)
	return n, err
}

// WriteTo on the ingress socket is a reply from the upstream loop; on the
// upstream socket it is a forward from the engine's loop.
func (c *tracedConn) WriteTo(b []byte, to netip.AddrPort) error {
	ctx, op, upID := ctxUpstream, opKey(to, dnsID(b)), uint16(0)
	if !c.ingress {
		ctx, upID = ctxIngress, dnsID(b)
		c.t.mu.Lock()
		if o := c.t.open[ctxIngress]; o >= 0 {
			op = c.t.spans[o].op
		}
		c.t.mu.Unlock()
	}
	i, prev := c.t.writeEnter(ctx, op, upID)
	err := c.inner.WriteTo(b, to)
	c.t.writeExit(i, ctx, prev)
	return err
}

// WriteBatch on the ingress socket flushes a batch's grants at the end of
// the engine's batch.
func (c *tracedConn) WriteBatch(msgs []netapi.Datagram) (int, error) {
	var op uint64
	if len(msgs) == 1 {
		op = opKey(msgs[0].Addr, dnsID(msgs[0].Payload()))
	}
	c.t.mu.Lock()
	c.t.closeOpen(ctxIngress, cpuNow())
	c.t.mu.Unlock()
	i, prev := c.t.writeEnter(ctxIngress, op, 0)
	n, err := c.batch.WriteBatch(msgs)
	c.t.writeExit(i, ctxIngress, prev)
	return n, err
}

// serveTraced runs the traced guard: the benchmark's deployment (zone
// guardZone, scheme dns, guardBatch, no stats loop, every other dnsguardd
// flag at its default) assembled as dnsguardd assembles it, the same
// banner, then a control loop on standard input ("mark" prints the ledger,
// "spans" writes the spans; end of input stops the guard). Its arguments
// are only the run's addresses and where the spans go.
func serveTraced(args []string) error {
	fs := flag.NewFlagSet("serve-traced", flag.ContinueOnError)
	spansPath := fs.String("spans", "", "write spans here")
	ansAddr := fs.String("ans", "", "the ANS fixture's address")
	if err := fs.Parse(args); err != nil {
		return err
	}
	apex, err := dnsguard.ParseName(guardZone)
	if err != nil {
		return err
	}
	pub := netip.MustParseAddrPort("127.0.0.1:0")
	ans, err := netip.ParseAddrPort(*ansAddr)
	if err != nil {
		return err
	}
	t := newTracer()
	env := &tracedEnv{Env: realnet.New(), t: t}
	auth, err := dnsguard.OpenKeyringWith(dnsguard.KeyringOptions{MAC: tracedMAC{inner: cookie.MD5, t: t}})
	if err != nil {
		return err
	}
	cfg := dnsguard.RemoteGuardConfig{
		Env:         env,
		Shards:      1,
		Batch:       guardBatch,
		Ingest:      dnsguard.IngestAuto,
		FastPathTTL: time.Minute,
		ANSAddr:     ans,
		Health:      dnsguard.GuardHealthConfig{FailOpen: false},
		Supervision: dnsguard.SupervisorConfig{Enabled: true, Trip: dnsguard.TripDrop},
		Zone:        apex,
		Fallback:    dnsguard.SchemeDNS,
		Auth:        auth,
		Observer:    t.observe,
	}
	cfg.Normalize()
	caps := dnsguard.Capabilities(env)
	if caps.ListenUDPReuse == nil {
		return errors.New("environment cannot bind sharded sockets")
	}
	conns, err := caps.ListenUDPReuse(pub, cfg.Shards)
	if err != nil {
		return fmt.Errorf("binding %v: %w", pub, err)
	}
	cfg.IOs = make([]guard.PacketIO, len(conns))
	for i, c := range conns {
		cfg.IOs[i] = guard.SocketIO{Conn: c}
	}
	cfg.PublicAddr = conns[0].LocalAddr()
	if err := cfg.Validate(); err != nil {
		return err
	}
	g, err := dnsguard.NewRemoteGuard(cfg)
	if err != nil {
		return err
	}
	if err := g.Start(); err != nil {
		return err
	}
	defer g.Close()
	effIngest := "hash"
	if g.Engine().Affine() {
		effIngest = "affine"
	} else if cfg.Shards == 1 {
		effIngest = "inline"
	}
	fmt.Printf("dnsguardd: guarding zone %s on %v → ANS %v (scheme %v, threshold %.0f, shards %d, batch %d, ingest %s)\n",
		apex, conns[0].LocalAddr(), ans, dnsguard.SchemeDNS, 0.0, cfg.Shards, cfg.Batch, effIngest)
	proxy, err := dnsguard.NewTCPProxy(dnsguard.TCPProxyConfig{
		Env: env, Listen: conns[0].LocalAddr(), ANSAddr: ans, RTT: 50 * time.Millisecond,
	})
	if err != nil {
		return fmt.Errorf("starting TCP proxy: %w", err)
	}
	if err := proxy.Start(); err != nil {
		return fmt.Errorf("starting TCP proxy: %w", err)
	}
	defer proxy.Close()
	fmt.Printf("dnsguardd: TCP proxy on %v\n", conns[0].LocalAddr())
	reg := dnsguard.NewMetrics()
	g.MetricsInto(reg)
	proxy.MetricsInto(reg)
	l, err := dnsguard.ServeMetricsHealth("127.0.0.1:0", reg, g.Healthz, func() error { return g.Ready(0) })
	if err != nil {
		return fmt.Errorf("serving metrics: %w", err)
	}
	defer l.Close()
	fmt.Printf("dnsguardd: metrics on http://%v/metrics (probes /healthz /readyz)\n", l.Addr())

	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		switch sc.Text() {
		case "mark":
			b, err := json.Marshal(t.snapshot())
			if err != nil {
				return err
			}
			fmt.Println(string(b))
		case "spans":
			if err := t.writeSpans(*spansPath); err != nil {
				return err
			}
			fmt.Println("ok")
		default:
			return fmt.Errorf("unknown control line %q", sc.Text())
		}
	}
	return sc.Err()
}
