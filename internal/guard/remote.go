package guard

import (
	"crypto/subtle"
	"errors"
	"fmt"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"dnsguard/internal/cookie"
	"dnsguard/internal/cpumodel"
	"dnsguard/internal/dnswire"
	"dnsguard/internal/engine"
	"dnsguard/internal/metrics"
	"dnsguard/internal/netapi"
	"dnsguard/internal/ratelimit"
	"dnsguard/internal/resolver"
)

// Scheme selects how the guard bootstraps cookie-less requesters.
type Scheme int

// Fallback schemes for requesters that do not speak the cookie extension.
const (
	// SchemeDNS embeds cookies in fabricated NS names (and, for
	// non-referral answers, in a fabricated server address within the
	// guard's subnet) — §III-B.
	SchemeDNS Scheme = iota + 1
	// SchemeTCP redirects the requester to TCP via the truncation flag —
	// §III-C. The TCP side is served by internal/tcpproxy.
	SchemeTCP
)

func (s Scheme) String() string {
	switch s {
	case SchemeDNS:
		return "dns-based"
	case SchemeTCP:
		return "tcp-based"
	default:
		return fmt.Sprintf("scheme(%d)", int(s))
	}
}

// CPUWorker charges simulated CPU time; netsim.(*CPU) implements it.
type CPUWorker interface {
	Work(d time.Duration)
}

// RemoteConfig parameterizes the ANS-side guard.
type RemoteConfig struct {
	// Env supplies clock and sockets.
	Env netapi.Env
	// IO is the packet-capture interface for the protected address space.
	// Shorthand for a one-entry IOs; exactly one of IO / IOs is required.
	IO PacketIO
	// IOs are multiple capture interfaces (e.g. SO_REUSEPORT siblings from
	// netapi.UDPReuseEnv); the engine runs one reader per entry. Replies
	// always leave through IOs[0].
	IOs []PacketIO
	// Shards is the dataplane worker count; every per-source structure
	// (pending NAT table, rate limiters, verifier) is owned by the shard
	// the source address hashes to. 0 and 1 mean one shard, which runs the
	// pre-engine inline pipeline and reproduces it exactly.
	Shards int
	// QueueDepth bounds each shard's ingress queue (multi-shard only).
	// 0 means the engine default.
	QueueDepth int
	// Batch is the number of datagrams the dataplane moves per read when the
	// capture interface supports it (TapIO and SocketIO both do). 0 and 1
	// mean per-packet I/O, which reproduces the pre-batching dataplane
	// event for event. Larger values amortize the read syscall, the shard
	// queue hop, the cookie-keyring lock, and the egress writes across the
	// batch; per-packet semantics (admission policy, supervision, observer,
	// all counters) are unchanged.
	Batch int
	// Ingest selects how packets reach shard workers (see engine.IngestMode).
	// The zero value (engine.IngestAuto) picks shard-affine ingest — one read
	// loop per shard on its own interface, no queue hop — when len(IOs) ==
	// Shards and every interface reports stable kernel flow steering
	// (netapi.FlowStableConn, e.g. SO_REUSEPORT siblings); otherwise the
	// central source-hash fan-out runs, which netsim requires for
	// deterministic replays.
	Ingest engine.IngestMode
	// FastPathTTL enables the verified-source cache: a source that just
	// passed a cookie check is remembered with its credential for this
	// long, replacing the next MD5 verification with a byte compare. The
	// presented credential is still compared — a spoofed address alone
	// gains nothing. 0 disables the cache (the deterministic-reproduction
	// configuration). Keep it at or below the key-rotation grace period:
	// a cached credential is honored until its TTL even across a Rotate.
	FastPathTTL time.Duration
	// FastPathSources bounds the verified-source cache per shard.
	// 0 means the engine default.
	FastPathSources int
	// Observer, when non-nil, is called in worker context with the owning
	// shard right before each packet is handled. Diagnostic hook; tests
	// use it to assert per-source shard affinity.
	Observer func(shard int, pkt Packet)
	// PublicAddr is the ANS's advertised address, which the guard
	// intercepts and answers from.
	PublicAddr netip.AddrPort
	// ANSAddr is where the real ANS actually listens (the guard's private
	// path to it).
	ANSAddr netip.AddrPort
	// ANSFallbacks are ordered secondary ANS addresses (e.g. a hidden
	// replica) tried in sequence when the primary's circuit breaker opens.
	// A non-empty list implies Health.Enabled.
	ANSFallbacks []netip.AddrPort
	// Health configures the per-shard upstream circuit breaker and the
	// pending-table sweeper feeding it. The zero value disables both,
	// preserving the historical proc set exactly.
	Health HealthConfig
	// Supervision configures dataplane shard supervision (recover boundary,
	// quarantine, restart budget, trip policy) — see engine.SupervisorConfig.
	// When Trip is engine.TripPass and OnPass is nil, tripped shards relay
	// their packets unfiltered via the guard's passthrough path.
	Supervision engine.SupervisorConfig
	// Zone is the apex of the zone the protected ANS serves.
	Zone dnswire.Name
	// Subnet is the intercepted prefix used for IP cookies (scheme 1b,
	// non-referral answers). Invalid/zero disables the fabricated-IP
	// variant; non-referral first contacts then fail closed.
	Subnet netip.Prefix
	// Fallback is the scheme used for cookie-less requesters.
	Fallback Scheme
	// TCPClients lists source prefixes that are always redirected to TCP
	// regardless of Fallback (the paper's Figure 5 testbed redirects its
	// second LRS to TCP while the first uses UDP cookies).
	TCPClients []netip.Prefix
	// Auth computes cookies; required.
	Auth *cookie.Authenticator
	// NSPrefix overrides the fabricated-label prefix.
	NSPrefix string
	// NSTTL is the TTL (seconds) of fabricated records and wire cookies;
	// 0 means one week (§III-E).
	NSTTL uint32
	// RL1 configures Rate-Limiter1 (cookie responses). Zero-value fields
	// take defaults. Each shard runs its own limiter over the sources it
	// owns, so per-source limits are exact and global budgets are split
	// per shard.
	RL1 ratelimit.Limiter1Config
	// RL2 configures Rate-Limiter2 (verified requests).
	RL2 ratelimit.Limiter2Config
	// ActivationThreshold is the input rate (req/s) above which spoof
	// detection engages; 0 means always on (§IV-C uses the ANS capacity).
	ActivationThreshold float64
	// PendingTimeout bounds NAT-table entries for in-flight ANS queries.
	PendingTimeout time.Duration
	// AnswerCacheTTL bounds the non-referral answer cache (message 5
	// results reused for message 7). 0 means 10 s; negative disables the
	// cache entirely (every message 7 consults the ANS, the paper's
	// 4-packet cache-hit accounting).
	AnswerCacheTTL time.Duration
	// KeyRotation, when positive, rotates the cookie key on that period
	// (the paper suggests weekly, matching the cookie TTL so each
	// verification still costs one MD5 — §III-E).
	KeyRotation time.Duration
	// CPU, when non-nil, is charged per Costs for every operation.
	CPU CPUWorker
	// Costs are the per-operation charges (see cpumodel.Default2006).
	Costs cpumodel.GuardCosts
	// ShardHashSeed, when non-zero, fixes the source→shard hash (see
	// engine.Config.HashSeed). Deterministic simulations set it so
	// multi-shard runs replay bit-identically; production keeps 0.
	ShardHashSeed uint64
	// Mitigation arms the layered auto-mitigation selector (see
	// MitigationConfig and mitigate.go). Disabled by default: the guard
	// then keeps the paper's static activation behavior exactly.
	Mitigation MitigationConfig
}

// Validate reports the first missing required field, without touching the
// config. NewRemote calls it; flag plumbing can call it directly after
// assembling a config (typically after Normalize, once the I/O fields are
// bound).
func (c *RemoteConfig) Validate() error {
	switch {
	case c.Env == nil:
		return errors.New("guard: RemoteConfig.Env is required")
	case c.IO == nil && len(c.IOs) == 0:
		return errors.New("guard: RemoteConfig.IO (or IOs) is required")
	case c.Auth == nil:
		return errors.New("guard: RemoteConfig.Auth is required")
	case !c.PublicAddr.IsValid() || !c.ANSAddr.IsValid():
		return errors.New("guard: PublicAddr and ANSAddr are required")
	}
	return nil
}

// Normalize fills every defaulted field in place. It is idempotent and
// independent of Validate — flag plumbing can Normalize a partially built
// config first (for example to learn the effective Shards before binding
// that many sockets), then set the I/O fields and Validate.
func (c *RemoteConfig) Normalize() {
	if len(c.IOs) == 0 && c.IO != nil {
		c.IOs = []PacketIO{c.IO}
	}
	if c.IO == nil && len(c.IOs) > 0 {
		c.IO = c.IOs[0]
	}
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.Batch <= 0 {
		c.Batch = 1
	}
	if c.Fallback == 0 {
		c.Fallback = SchemeDNS
	}
	if c.NSTTL == 0 {
		c.NSTTL = uint32(cookie.DefaultTTL / time.Second)
	}
	if c.RL1.PerSourceRate == 0 {
		c.RL1 = ratelimit.DefaultLimiter1Config()
	}
	if c.RL2.PerSourceRate == 0 {
		c.RL2 = ratelimit.DefaultLimiter2Config()
	}
	if c.PendingTimeout <= 0 {
		c.PendingTimeout = 3 * time.Second
	}
	if c.AnswerCacheTTL == 0 {
		c.AnswerCacheTTL = 10 * time.Second
	}
	if len(c.ANSFallbacks) > 0 {
		c.Health.Enabled = true
	}
	if c.Health.Enabled {
		c.Health.fillDefaults(c.PendingTimeout)
	}
	if c.Mitigation.Enabled {
		c.Mitigation.normalize()
	}
}

func (c *RemoteConfig) fillDefaults() error {
	if err := c.Validate(); err != nil {
		return err
	}
	c.Normalize()
	return nil
}

// RemoteStats counts guard activity; the experiment harness reads these.
// Fields are written with atomic operations (shard workers and the upstream
// loops run concurrently under real clocks); read individual fields with
// atomic.LoadUint64, or take a consistent-enough copy via Load.
type RemoteStats struct {
	Received        uint64 // packets read from the capture interface
	Passthrough     uint64 // relayed while spoof detection inactive
	Malformed       uint64
	NewcomerGrants  uint64 // fabricated NS / TC / cookie responses sent
	RL1Dropped      uint64 // cookie responses suppressed by Rate-Limiter1
	CookieValid     uint64 // requests whose cookie verified
	CookieInvalid   uint64 // spoofed requests dropped
	RL2Dropped      uint64 // verified requests over the nominal rate
	FastPathHits    uint64 // verifications short-circuited by the source cache
	ForwardedToANS  uint64
	AnswerCacheHits uint64
	RepliesToClient uint64
	TCRedirects     uint64
	PendingDropped  uint64 // NAT table overflow/expiry losses
	UpstreamStrays  uint64 // duplicated/unmatched ANS responses discarded
	UpstreamSpoofed uint64 // upstream datagrams failing source/question checks
	KeyRotations    uint64

	// Upstream health / failover (HealthConfig; zero when disabled).
	UpstreamTimeouts uint64 // pending entries reaped as upstream timeouts
	BreakerOpens     uint64 // breakers tripped by consecutive timeouts
	BreakerCloses    uint64 // breakers restored by a verified response
	ProbesSent       uint64 // half-open synthetic SOA probes emitted
	Failovers        uint64 // forwards diverted to a fallback upstream
	FailClosedDrops  uint64 // forwards shed with every breaker open
}

// Load returns an atomically-field-read copy of the stats. Each field is
// individually exact; the set is not a single consistent cut, which is fine
// for monitoring and for quiesced test assertions.
func (s *RemoteStats) Load() RemoteStats {
	return metrics.SnapshotUint64(s)
}

// MetricsInto registers every counter as a guard_remote_* series reading
// the live fields, so exports track the struct without copying it.
func (s *RemoteStats) MetricsInto(r *metrics.Registry) {
	metrics.RegisterUint64Fields(r, "guard_remote_", s)
}

type pendKind int

const (
	pendPassthrough pendKind = iota + 1
	pendChild                // rewritten cookie query (message 4); answer fabricates message 6
	pendDirect               // verified request relayed as-is (messages 5/8)
	pendProbe                // guard-minted half-open health probe; consumed internally
)

type pendEntry struct {
	kind      pendKind
	clientSrc netip.AddrPort
	replyFrom netip.AddrPort // source address for our reply (public or cookie IP)
	origID    uint16
	question  dnswire.Question // the client's question (fabricated name for pendChild)
	child     dnswire.Name     // restored child name (pendChild)
	fwdQ      dnswire.Question // question actually sent upstream; responses must echo it
	upstream  netip.AddrPort   // where the query went; the response must come from here
	expires   time.Duration

	// Fast-path entries (fastpath.go) carry the forwarded and client question
	// spans as reused wire bytes instead of decoded structures; the decoded
	// fields above stay zero until materializeFastLocked fills them for the
	// materializing upstream path. fast entries return to the shard pool.
	fast    bool
	qwire   []byte // client question span, name folded to canonical case (pendChild)
	fwdWire []byte // forwarded question span; upstream responses must echo it
}

// Remote is the ANS-side DNS guard. Its packet pipeline runs on an
// internal/engine dataplane: source addresses hash to shards, and each shard
// owns every per-source structure (rate limiters, pending NAT table,
// transaction-ID pool, upstream socket), so the hot path takes no cross-shard
// locks. With Shards == 1 the engine runs inline and the guard behaves —
// event for event — like the original single-loop implementation.
type Remote struct {
	cfg    RemoteConfig
	nsc    cookie.NSCodec
	ipc    cookie.IPCodec

	// nsPrefix/nsPrefixLen cache the NS codec's label geometry for the wire
	// fast path: the effective (lowercase) label prefix and the full cookie
	// label length it implies.
	nsPrefix    string
	nsPrefixLen int
	eng    *engine.Engine
	shards []*remoteShard
	rate   *ratelimit.RateEstimator
	rateMu sync.Mutex // serializes the rate estimator across shard workers
	active atomic.Bool
	closed atomic.Bool

	// Planned-change lifecycle (lifecycle.go): the state machine gauge and
	// its counters. Zero value = serving, so guards that never drain are
	// untouched.
	lcState atomic.Int32
	lc      LifecycleStats

	// Layered auto-mitigation selector state (mitigate.go). mit is always
	// non-nil; the three control atomics stay at their zero values (mitAuto,
	// no fallback override, non-strict) whenever the selector is disarmed,
	// which makes every override check below a no-op.
	mit         *mitigator
	mitMode     atomic.Int32 // mitAuto / mitForcePass / mitForceActive
	mitFallback atomic.Int32 // 0 or an imposed Scheme
	mitStrict   atomic.Bool  // limiters tightened StrictFactor×

	// answers is the shared non-referral answer cache (locks internally).
	answers *resolver.Cache

	// Stats is updated as the guard runs (atomically; see RemoteStats).
	Stats RemoteStats
}

// remoteShard is the engine handler for one shard: the slice of guard state
// owned by the sources that hash there. Everything except pending/ids is
// touched only by the shard's worker; the NAT table is shared with the
// shard's upstream loop, hence mu.
type remoteShard struct {
	g        *Remote
	id       int
	upstream netapi.UDPConn
	health   *shardHealth // nil unless cfg.Health.Enabled

	// mu guards the NAT table, the ID pool, and the limiter pointers (the
	// pointers are swapped by ResetShard and read by metrics closures; the
	// limiters themselves are internally synchronized).
	mu      sync.Mutex
	rl1     *ratelimit.Limiter1
	rl2     *ratelimit.Limiter2
	pending map[uint16]*pendEntry
	ids     idPool

	// strict mirrors the selector's mitStrict flag into worker context;
	// syncLimiters compares and rebuilds the limiters on transitions.
	strict bool

	// Batch-bracket state, touched only by the shard's worker between
	// BeginBatch and EndBatch (see batch.go): the keyring snapshot and the
	// coalesced-egress reply buffer.
	bv      *cookie.BatchVerifier
	inBatch bool
	outbuf  []Packet

	// Fast-path scratch (fastpath.go). entryPool is the pendEntry free list
	// (under mu); credBuf and wireBuf are worker-context scratch for the
	// credential and the forwarded wire; upBuf is upstream-loop-context
	// scratch for fabricated replies. The two contexts never share a buffer.
	entryPool []*pendEntry
	credBuf   []byte
	wireBuf   []byte
	upBuf     []byte
}

// limiters returns the shard's current rate limiters; ResetShard may swap
// them, so cross-proc readers (metrics) go through here.
func (s *remoteShard) limiters() (*ratelimit.Limiter1, *ratelimit.Limiter2) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rl1, s.rl2
}

// ResetShard implements engine.Resetter: a supervised shard restart discards
// every per-packet structure (NAT table, ID pool, rate limiters — any of
// which the panic may have left mid-update) while keeping the upstream
// socket, its reader proc, and the breaker state, whose lifetimes span
// restarts. Runs in the owning worker's context.
func (s *remoteShard) ResetShard() {
	g := s.g
	now := g.now()
	s.mu.Lock()
	s.pending = make(map[uint16]*pendEntry)
	s.ids = idPool{}
	s.rl1 = ratelimit.NewLimiter1(g.cfg.RL1, now)
	s.rl2 = ratelimit.NewLimiter2(g.cfg.RL2, now)
	s.mu.Unlock()
}

// MetricsInto registers the guard's counters, rate-limiter counters, a live
// NAT-table-size gauge, and the dataplane's guard_engine_* series on r. The
// guard_rl1_* / guard_rl2_* names are stable across shard counts: with one
// shard they read the limiter directly, otherwise they sum across shards.
func (g *Remote) MetricsInto(r *metrics.Registry) {
	g.Stats.MetricsInto(r)
	// Limiter series sum across shards and read the limiter pointers through
	// the shard lock, so they stay live across supervised shard restarts
	// (ResetShard swaps the limiters). With one shard the sum is the
	// limiter itself, keeping the series names stable across shard counts.
	sum := func(f func(*remoteShard) uint64) func() uint64 {
		return func() uint64 {
			var t uint64
			for _, s := range g.shards {
				t += f(s)
			}
			return t
		}
	}
	r.FuncUint("guard_rl1_allowed", sum(func(s *remoteShard) uint64 { rl1, _ := s.limiters(); a, _ := rl1.Stats(); return a }))
	r.FuncUint("guard_rl1_denied", sum(func(s *remoteShard) uint64 { rl1, _ := s.limiters(); _, d := rl1.Stats(); return d }))
	r.FuncUint("guard_rl1_topk_evictions", sum(func(s *remoteShard) uint64 { rl1, _ := s.limiters(); return rl1.TopKEvictions() }))
	r.FuncUint("guard_rl2_allowed", sum(func(s *remoteShard) uint64 { _, rl2 := s.limiters(); a, _ := rl2.Stats(); return a }))
	r.FuncUint("guard_rl2_denied", sum(func(s *remoteShard) uint64 { _, rl2 := s.limiters(); _, d := rl2.Stats(); return d }))
	r.Func("guard_remote_pending", func() float64 {
		return float64(g.PendingEntries())
	})
	g.mitMetricsInto(r)
	g.lifecycleMetricsInto(r)
	g.eng.MetricsInto(r, "guard_engine_")
}

// NewRemote validates cfg and creates the guard (not yet started).
func NewRemote(cfg RemoteConfig) (*Remote, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	now := cfg.Env.Now()
	g := &Remote{
		cfg:     cfg,
		nsc:     cookie.NSCodec{Prefix: cfg.NSPrefix},
		ipc:     cookie.IPCodec{Subnet: cfg.Subnet},
		rate:    ratelimit.NewRateEstimator(10, 100*time.Millisecond),
		answers: resolver.NewCache(4096),
		mit:     newMitigator(cfg.Mitigation),
	}
	prefix := cfg.NSPrefix
	if prefix == "" {
		prefix = cookie.DefaultNSPrefix
	}
	g.nsPrefix = prefix
	g.nsPrefixLen = len(g.nsc.EncodeLabel(cookie.Cookie{}))
	if cfg.Mitigation.Enabled {
		// Derive the initial control flags from the ladder bottom
		// (passthrough) so the armed guard starts fully open and works its
		// way up; disarmed guards never touch the flags.
		g.applyMitigation()
	}
	g.shards = make([]*remoteShard, cfg.Shards)
	sup := cfg.Supervision
	if sup.Enabled && sup.Trip == engine.TripPass && sup.OnPass == nil {
		// Fail-open trip: a shard that exhausted its restart budget relays
		// its sources' traffic unfiltered instead of silencing them.
		sup.OnPass = func(shard int, pkt Packet) { g.shards[shard].passthrough(pkt) }
	}
	eng, err := engine.New(engine.Config{
		Env:             cfg.Env,
		IOs:             cfg.IOs,
		Shards:          cfg.Shards,
		QueueDepth:      cfg.QueueDepth,
		Batch:           cfg.Batch,
		Ingest:          cfg.Ingest,
		FastPathTTL:     cfg.FastPathTTL,
		FastPathSources: cfg.FastPathSources,
		Name:            "guard",
		Observer:        cfg.Observer,
		Supervisor:      sup,
		HashSeed:        cfg.ShardHashSeed,
		NewHandler: func(i int) engine.Handler {
			s := &remoteShard{
				g:       g,
				id:      i,
				rl1:     ratelimit.NewLimiter1(cfg.RL1, now),
				rl2:     ratelimit.NewLimiter2(cfg.RL2, now),
				pending: make(map[uint16]*pendEntry),
				credBuf: append(make([]byte, 0, 3+g.nsPrefixLen), "ns:"...)[:3+g.nsPrefixLen],
				wireBuf: make([]byte, 0, dnswire.MaxUDPSize),
				upBuf:   make([]byte, 0, dnswire.MaxUDPSize),
			}
			if cfg.Health.Enabled {
				s.health = newShardHealth(g)
			}
			g.shards[i] = s
			return s
		},
	})
	if err != nil {
		return nil, fmt.Errorf("guard: %w", err)
	}
	g.eng = eng
	return g, nil
}

// Start opens the per-shard upstream sockets and spawns the dataplane.
// With one shard the spawn sequence is exactly the historical one —
// upstream bind, "guard-capture", "guard-upstream", "guard-rotate" — so
// deterministic simulations replay unchanged.
func (g *Remote) Start() error {
	for _, s := range g.shards {
		up, err := g.cfg.Env.ListenUDP(netip.AddrPort{})
		if err != nil {
			return fmt.Errorf("guard: binding upstream socket: %w", err)
		}
		// Best-effort: widen the kernel receive buffer where the conn
		// exposes it. ANS replies arrive in bursts while the shard worker is
		// busy with ingress; the distro default (~208 KiB ≈ 128 small
		// datagrams of skb truesize) silently drops the excess, which shows
		// up as upstream timeouts under load the dataplane could handle.
		if rb, ok := up.(interface{ SetReadBuffer(int) error }); ok {
			_ = rb.SetReadBuffer(4 << 20)
		}
		s.upstream = up
	}
	g.eng.Start()
	for _, s := range g.shards {
		s := s
		name := "guard-upstream"
		if len(g.shards) > 1 {
			name = fmt.Sprintf("guard-upstream-%d", s.id)
		}
		g.cfg.Env.Go(name, s.upstreamLoop)
	}
	if g.cfg.Health.Enabled {
		for _, s := range g.shards {
			s := s
			name := "guard-health"
			if len(g.shards) > 1 {
				name = fmt.Sprintf("guard-health-%d", s.id)
			}
			g.cfg.Env.Go(name, s.healthLoop)
		}
	}
	if g.cfg.KeyRotation > 0 {
		g.cfg.Env.Go("guard-rotate", g.rotateLoop)
	}
	if g.cfg.Mitigation.Enabled {
		g.cfg.Env.Go("guard-mitigate", g.mitigateLoop)
	}
	return nil
}

// UpstreamAddr reports the local address of shard 0's upstream socket
// (valid after Start). Tests use it to aim spoofed datagrams at the
// ANS-facing path.
func (g *Remote) UpstreamAddr() netip.AddrPort {
	if g.shards[0].upstream == nil {
		return netip.AddrPort{}
	}
	return g.shards[0].upstream.LocalAddr()
}

// PendingEntries reports the NAT-table population summed across shards.
func (g *Remote) PendingEntries() int {
	total := 0
	for _, s := range g.shards {
		s.mu.Lock()
		total += len(s.pending)
		s.mu.Unlock()
	}
	return total
}

// Engine exposes the dataplane (shard mapping, backpressure stats, the
// verified-source cache). Read-only use.
func (g *Remote) Engine() *engine.Engine { return g.eng }

// rotateLoop changes the cookie key every KeyRotation period. Cookies from
// the previous generation stay valid for one more period (the generation
// bit selects the key), so rotation is invisible to live requesters.
func (g *Remote) rotateLoop() {
	for !g.closed.Load() {
		g.cfg.Env.Sleep(g.cfg.KeyRotation)
		if g.closed.Load() {
			return
		}
		if err := g.cfg.Auth.Rotate(); err != nil {
			continue // keep the old key; retry next period
		}
		atomic.AddUint64(&g.Stats.KeyRotations, 1)
	}
}

// AdoptKeys installs a fleet-published keyring state on this guard's
// authenticator (see cookie.Adopt): the fleet controller rotates the shared
// ring once and pushes the result to every site, so any guard verifies a
// cookie minted by any other. Reports whether the state was adopted (a stale
// epoch is ignored); an adoption that advances the epoch counts as a key
// rotation in the guard's stats.
func (g *Remote) AdoptKeys(st cookie.KeyState) bool {
	before := g.cfg.Auth.Epoch()
	if !g.cfg.Auth.Adopt(st) {
		return false
	}
	if g.cfg.Auth.Epoch() != before {
		atomic.AddUint64(&g.Stats.KeyRotations, 1)
	}
	return true
}

// KeyringEpoch reports the cookie keyring's current epoch — the value
// readiness gates compare against the fleet's target epoch.
func (g *Remote) KeyringEpoch() uint64 { return g.cfg.Auth.Epoch() }

// Close stops the guard.
func (g *Remote) Close() {
	if g.closed.Swap(true) {
		return
	}
	g.eng.Close()
	for _, s := range g.shards {
		if s.upstream != nil {
			_ = s.upstream.Close()
		}
	}
}

// Active reports whether spoof detection is currently engaged. The layered
// mitigation selector, when armed, can override the threshold decision in
// either direction: the ladder bottom relays everything, cookie rungs and
// above force detection on.
func (g *Remote) Active() bool {
	switch g.mitMode.Load() {
	case mitForcePass:
		return false
	case mitForceActive:
		return true
	}
	return g.cfg.ActivationThreshold == 0 || g.active.Load()
}

// preempter is optionally implemented by CPU models that distinguish
// interrupt-priority packet work from ordinary jobs (netsim.CPU does).
type preempter interface {
	WorkPreempt(d time.Duration)
}

func (g *Remote) charge(d time.Duration) {
	if g.cfg.CPU == nil || d <= 0 {
		return
	}
	// The guard's datapath ran in the kernel (iptables/softirq) on the
	// paper's testbed: it preempts userspace work like the TCP proxy.
	if p, ok := g.cfg.CPU.(preempter); ok {
		p.WorkPreempt(d)
		return
	}
	g.cfg.CPU.Work(d)
}

func (g *Remote) now() time.Duration { return g.cfg.Env.Now() }

// HandlePacket runs the Figure 4 pipeline for one intercepted datagram; the
// engine calls it on the worker owning pkt.Src's shard.
func (s *remoteShard) HandlePacket(pkt Packet) {
	g := s.g
	s.syncLimiters()
	atomic.AddUint64(&g.Stats.Received, 1)
	g.charge(g.cfg.Costs.PacketOp)
	g.updateActivation()
	s.handle(pkt)
}

func (g *Remote) updateActivation() {
	if g.cfg.ActivationThreshold <= 0 {
		return
	}
	g.rateMu.Lock()
	defer g.rateMu.Unlock()
	now := g.now()
	g.rate.Observe(now)
	r := g.rate.Rate(now)
	switch {
	case !g.active.Load() && r > g.cfg.ActivationThreshold:
		g.active.Store(true)
	case g.active.Load() && r < 0.8*g.cfg.ActivationThreshold:
		g.active.Store(false)
	}
}

func (s *remoteShard) handle(pkt Packet) {
	g := s.g
	if pkt.Dst.Port() != g.cfg.PublicAddr.Port() {
		return // not DNS traffic for the protected service
	}
	if !g.Active() {
		s.passthrough(pkt)
		return
	}
	if s.tryFastNS(pkt) {
		return
	}
	msg, err := dnswire.Unpack(pkt.Payload)
	if err != nil || msg.Flags.QR || len(msg.Questions) == 0 {
		atomic.AddUint64(&g.Stats.Malformed, 1)
		return
	}
	// Scheme 1b: queries addressed to a cookie IP inside the guard subnet.
	if g.cfg.Subnet.IsValid() && pkt.Dst.Addr() != g.cfg.PublicAddr.Addr() && g.cfg.Subnet.Contains(pkt.Dst.Addr()) {
		s.handleIPCookie(pkt, msg)
		return
	}
	// Modified-DNS scheme: explicit cookie extension.
	if c, _, _, ok := FindCookie(msg); ok {
		s.handleModified(pkt, msg, c)
		return
	}
	// DNS-based scheme: cookie embedded in the query name.
	if label, child, ok := ParseFabricatedName(g.nsc, msg.Question().Name); ok {
		s.handleNSCookie(pkt, msg, label, child)
		return
	}
	s.handleNewcomer(pkt, msg)
}

// passthrough relays traffic unmodified while spoof detection is inactive.
func (s *remoteShard) passthrough(pkt Packet) {
	g := s.g
	if s.tryFastPassthrough(pkt) {
		return
	}
	msg, err := dnswire.Unpack(pkt.Payload)
	if err != nil || msg.Flags.QR {
		atomic.AddUint64(&g.Stats.Malformed, 1)
		return
	}
	atomic.AddUint64(&g.Stats.Passthrough, 1)
	s.forwardMsg(msg, &pendEntry{
		kind:      pendPassthrough,
		clientSrc: pkt.Src,
		replyFrom: pkt.Dst,
		origID:    msg.ID,
	})
}

// handleNewcomer boots a cookie-less requester per the fallback scheme.
func (s *remoteShard) handleNewcomer(pkt Packet, msg *dnswire.Message) {
	g := s.g
	if g.drainGate() {
		// Draining/quiesced: no new cookie exchanges — this instance may not
		// live to answer them. The client retries and lands on a serving
		// site (or this site's replacement).
		atomic.AddUint64(&g.lc.DrainDropped, 1)
		return
	}
	qname := msg.Question().Name
	if g.cfg.Mitigation.Enabled {
		// Feed the selector's name-diversity sketch before the limiter so
		// it reflects offered newcomer load, not the post-RL1 residue.
		g.mit.sketch.observe(qname)
	}
	if !s.rl1.AllowResponse(pkt.Src.Addr(), g.now()) {
		atomic.AddUint64(&g.Stats.RL1Dropped, 1)
		return
	}
	child, hasChild := qname.ChildOf(g.cfg.Zone)
	useTCP := g.effectiveFallback() == SchemeTCP || !hasChild || g.isTCPClient(pkt.Src.Addr())
	if !qname.IsSubdomainOf(g.cfg.Zone) && qname != g.cfg.Zone {
		resp := msg.Response()
		resp.Flags.RCode = dnswire.RCodeRefused
		s.reply(pkt.Dst, pkt.Src, resp)
		return
	}
	if useTCP {
		// TC redirect: also used for apex queries, which have no child
		// name to fabricate.
		g.charge(g.cfg.Costs.TCReply)
		atomic.AddUint64(&g.Stats.NewcomerGrants, 1)
		atomic.AddUint64(&g.Stats.TCRedirects, 1)
		resp := msg.Response()
		resp.Flags.TC = true
		s.reply(pkt.Dst, pkt.Src, resp)
		return
	}
	// DNS-based: fabricate "child NS <cookie+label>" with a long TTL and
	// no glue, so the LRS must come back through us to resolve it.
	g.charge(g.cfg.Costs.CookieGrant)
	c := s.mint(pkt.Src.Addr())
	fabName, err := FabricateNSName(g.nsc, c, child)
	if err != nil {
		// Label too long to carry a cookie; fall back to TCP.
		atomic.AddUint64(&g.Stats.TCRedirects, 1)
		resp := msg.Response()
		resp.Flags.TC = true
		s.reply(pkt.Dst, pkt.Src, resp)
		return
	}
	atomic.AddUint64(&g.Stats.NewcomerGrants, 1)
	resp := msg.Response()
	resp.Authority = []dnswire.RR{
		dnswire.NewRR(child, g.cfg.NSTTL, &dnswire.NSData{Host: fabName}),
	}
	s.reply(pkt.Dst, pkt.Src, resp)
}

// isTCPClient reports whether src is configured for TCP redirection.
func (g *Remote) isTCPClient(src netip.Addr) bool {
	for _, p := range g.cfg.TCPClients {
		if p.Contains(src) {
			return true
		}
	}
	return false
}

// fastPath consults the verified-source cache: true when src recently
// verified exactly cred, in which case the MD5 check may be skipped. The
// credential compare is the security boundary — the cache never turns a
// bare source address into trust — and it is constant-time: the presented
// credential is attacker-controlled, and a byte-wise early exit would leak
// the cached cookie one matching prefix byte at a time.
//
// The lookup is shard-explicit: this handler owns shard s.id, and under
// affine ingest the owning shard is the delivering socket's, not the source
// hash's, so the source-hashing VerifiedCred would consult (and promote
// into) a cache partition a different worker owns.
func (s *remoteShard) fastPath(src netip.Addr, cred string) bool {
	got, ok := s.g.eng.VerifiedCredOn(s.id, src)
	if !ok || subtle.ConstantTimeCompare([]byte(got), []byte(cred)) != 1 {
		return false
	}
	atomic.AddUint64(&s.g.Stats.FastPathHits, 1)
	return true
}

// handleNSCookie processes a query for a fabricated name (message 3):
// verify, restore, forward (message 4).
func (s *remoteShard) handleNSCookie(pkt Packet, msg *dnswire.Message, label string, child dnswire.Name) {
	g := s.g
	if cred := "ns:" + label; !s.fastPath(pkt.Src.Addr(), cred) {
		g.charge(g.cfg.Costs.CookieCheck)
		if !s.verifyLabel(pkt.Src.Addr(), label) {
			atomic.AddUint64(&g.Stats.CookieInvalid, 1)
			return
		}
		g.eng.MarkVerifiedOn(s.id, pkt.Src.Addr(), cred)
	}
	atomic.AddUint64(&g.Stats.CookieValid, 1)
	if !s.rl2.AllowRequest(pkt.Src.Addr(), g.now()) {
		atomic.AddUint64(&g.Stats.RL2Dropped, 1)
		return
	}
	g.charge(g.cfg.Costs.Rewrite)
	q := msg.Question()
	fwd := dnswire.NewQuery(0, child, q.Type)
	fwd.Flags.RD = false
	s.forwardMsg(fwd, &pendEntry{
		kind:      pendChild,
		clientSrc: pkt.Src,
		replyFrom: pkt.Dst,
		origID:    msg.ID,
		question:  q,
		child:     child,
	})
}

// handleIPCookie processes a query addressed to a cookie address
// (message 7): the destination IP is the credential.
func (s *remoteShard) handleIPCookie(pkt Packet, msg *dnswire.Message) {
	g := s.g
	dst16 := pkt.Dst.Addr().As16()
	if cred := "ip:" + string(dst16[:]); !s.fastPath(pkt.Src.Addr(), cred) {
		g.charge(g.cfg.Costs.CookieCheck)
		if !s.verifyIP(pkt.Src.Addr(), pkt.Dst.Addr()) {
			atomic.AddUint64(&g.Stats.CookieInvalid, 1)
			return
		}
		g.eng.MarkVerifiedOn(s.id, pkt.Src.Addr(), cred)
	}
	atomic.AddUint64(&g.Stats.CookieValid, 1)
	if !s.rl2.AllowRequest(pkt.Src.Addr(), g.now()) {
		atomic.AddUint64(&g.Stats.RL2Dropped, 1)
		return
	}
	q := msg.Question()
	// Serve from the answer cache when message 5's result is still fresh.
	if rrs, _, neg, ok := g.answersGet(q.Name, q.Type); ok && !neg {
		atomic.AddUint64(&g.Stats.AnswerCacheHits, 1)
		resp := msg.Response()
		resp.Flags.AA = true
		resp.Answers = rrs
		s.reply(pkt.Dst, pkt.Src, resp)
		return
	}
	fwd := dnswire.NewQuery(0, q.Name, q.Type)
	fwd.Flags.RD = false
	s.forwardMsg(fwd, &pendEntry{
		kind:      pendDirect,
		clientSrc: pkt.Src,
		replyFrom: pkt.Dst,
		origID:    msg.ID,
		question:  q,
	})
}

// handleModified processes the explicit cookie extension (Figure 3).
func (s *remoteShard) handleModified(pkt Packet, msg *dnswire.Message, c cookie.Cookie) {
	g := s.g
	if c.IsZero() {
		// Message 2: cookie request. Answer through Rate-Limiter1.
		if !s.rl1.AllowResponse(pkt.Src.Addr(), g.now()) {
			atomic.AddUint64(&g.Stats.RL1Dropped, 1)
			return
		}
		g.charge(g.cfg.Costs.CookieGrant)
		atomic.AddUint64(&g.Stats.NewcomerGrants, 1)
		resp := msg.Response()
		AttachCookie(resp, s.mint(pkt.Src.Addr()), g.cfg.NSTTL)
		s.reply(pkt.Dst, pkt.Src, resp)
		return
	}
	if cred := "ck:" + string(c[:]); !s.fastPath(pkt.Src.Addr(), cred) {
		g.charge(g.cfg.Costs.CookieCheck)
		if !s.verifyCookie(pkt.Src.Addr(), c) {
			atomic.AddUint64(&g.Stats.CookieInvalid, 1)
			return
		}
		g.eng.MarkVerifiedOn(s.id, pkt.Src.Addr(), cred)
	}
	atomic.AddUint64(&g.Stats.CookieValid, 1)
	if !s.rl2.AllowRequest(pkt.Src.Addr(), g.now()) {
		atomic.AddUint64(&g.Stats.RL2Dropped, 1)
		return
	}
	g.charge(g.cfg.Costs.Rewrite)
	fwd := *msg
	fwd.Additional = append([]dnswire.RR(nil), msg.Additional...)
	_, _ = StripCookie(&fwd)
	s.forwardMsg(&fwd, &pendEntry{
		kind:      pendDirect,
		clientSrc: pkt.Src,
		replyFrom: pkt.Dst,
		origID:    msg.ID,
		question:  msg.Question(),
	})
}

// forwardMsg sends msg to the current upstream — the configured ANS, or
// whatever the shard's circuit breaker selects when health tracking is on —
// under a fresh transaction ID, registering the pending entry for the
// response.
func (s *remoteShard) forwardMsg(msg *dnswire.Message, entry *pendEntry) {
	g := s.g
	target := g.cfg.ANSAddr
	if s.health != nil {
		up, ok := s.health.pick()
		if !ok {
			// Every breaker open and the policy is fail-closed: shed.
			atomic.AddUint64(&g.Stats.FailClosedDrops, 1)
			return
		}
		if up != g.cfg.ANSAddr {
			atomic.AddUint64(&g.Stats.Failovers, 1)
		}
		target = up
	}
	s.forwardTo(msg, entry, target)
}

// forwardTo is forwardMsg with an explicit upstream (health probes pick
// their own target).
func (s *remoteShard) forwardTo(msg *dnswire.Message, entry *pendEntry, target netip.AddrPort) {
	g := s.g
	entry.upstream = target
	if len(msg.Questions) > 0 {
		entry.fwdQ = msg.Questions[0]
	}
	entry.expires = g.now() + g.cfg.PendingTimeout
	s.mu.Lock()
	id, ok := s.allocID()
	if !ok {
		s.mu.Unlock()
		atomic.AddUint64(&g.Stats.PendingDropped, 1)
		return
	}
	s.pending[id] = entry
	s.mu.Unlock()
	out := *msg
	out.ID = id
	wire, err := out.PackUDP(dnswire.MaxUDPSize)
	if err != nil {
		s.mu.Lock()
		delete(s.pending, id)
		s.ids.release(id)
		s.mu.Unlock()
		return
	}
	atomic.AddUint64(&g.Stats.ForwardedToANS, 1)
	g.charge(g.cfg.Costs.PacketOp)
	_ = s.upstream.WriteTo(wire, target)
}

// allocID picks an unused transaction ID in O(1) via the shard's ID pool;
// the caller must hold s.mu. When the NAT table is at capacity it first
// reaps expired entries, refusing only if the table is genuinely full of
// live queries.
func (s *remoteShard) allocID() (uint16, bool) {
	if len(s.pending) >= maxPending {
		now := s.g.now()
		for id, e := range s.pending {
			if now >= e.expires {
				delete(s.pending, id)
				s.ids.release(id)
				s.putEntryLocked(e)
				atomic.AddUint64(&s.g.Stats.PendingDropped, 1)
			}
		}
		if len(s.pending) >= maxPending {
			return 0, false
		}
	}
	return s.ids.get()
}

// maxPending bounds each shard's NAT table (the pre-engine global bound,
// now per shard).
const maxPending = 4096

// upstreamLoop receives ANS responses for one shard and transforms them per
// the pending entry's kind. A datagram is consumed only when it (a) comes
// from the configured ANS address, and (b) echoes the question the guard
// forwarded — ID alone is 16 bits of entropy, trivially sweepable by an
// off-path attacker who learns the upstream port.
func (s *remoteShard) upstreamLoop() {
	g := s.g
	// One slab reused for every read: the per-datagram buffer churn of a
	// ReadFrom loop disappears and on Linux the reads collapse into
	// recvmmsg. With Batch == 1 the slab has a single slot, and a full slab
	// makes ReadBatch exactly one blocking read per call (the zero-timeout
	// drain never runs), so the historical per-packet event sequence is
	// preserved. handleUpstream only borrows the payload — slab slots are
	// the loop's to overwrite on the next read — and may patch it in place
	// (the fast relay rewrites the transaction ID before writing out).
	bc := netapi.AsBatch(s.upstream)
	slab := netapi.NewSlab(g.cfg.Batch, dnswire.MaxMessageSize)
	for {
		n, err := bc.ReadBatch(slab, netapi.NoTimeout)
		if err != nil {
			return
		}
		for i := 0; i < n; i++ {
			s.handleUpstream(slab[i].Payload(), slab[i].Addr)
		}
	}
}

// handleUpstream validates and relays one ANS datagram. payload is borrowed:
// it is only read within the call, never retained.
func (s *remoteShard) handleUpstream(payload []byte, src netip.AddrPort) {
	g := s.g
	g.charge(g.cfg.Costs.PacketOp)
	if !g.isUpstreamAddr(src) {
		// Off-path datagram: only configured upstreams send here.
		atomic.AddUint64(&g.Stats.UpstreamSpoofed, 1)
		return
	}
	if s.tryFastUpstream(payload, src) {
		return
	}
	resp, err := dnswire.Unpack(payload)
	if err != nil || !resp.Flags.QR {
		return
	}
	s.mu.Lock()
	entry, ok := s.pending[resp.ID]
	if !ok {
		s.mu.Unlock()
		// Duplicated or long-delayed ANS response whose entry was
		// already consumed — the network, not the ANS, misbehaving.
		atomic.AddUint64(&g.Stats.UpstreamStrays, 1)
		return
	}
	if entry.fast && entry.fwdQ == (dnswire.Question{}) {
		// A fast entry whose response bailed to this path (answers,
		// NXDOMAIN with authority, case deviation, oversize reply): decode
		// its wire spans once so the question-echo check and answerChild
		// see the historical fields.
		s.materializeFastLocked(entry)
	}
	if len(resp.Questions) == 0 || resp.Questions[0] != entry.fwdQ || src != entry.upstream {
		// Right ID but wrong question — or right everything from the
		// wrong upstream (one configured ANS cannot vouch for another).
		// Spoofed or corrupted either way; keep the entry so the
		// genuine answer can still land.
		s.mu.Unlock()
		atomic.AddUint64(&g.Stats.UpstreamSpoofed, 1)
		return
	}
	expired := g.now() >= entry.expires
	delete(s.pending, resp.ID)
	s.ids.release(resp.ID)
	s.mu.Unlock()
	if s.health != nil {
		// Only a fully validated response feeds the breaker: source,
		// ID, and question echo all checked above.
		s.health.noteSuccess(src)
	}
	if expired {
		atomic.AddUint64(&g.Stats.PendingDropped, 1)
		s.recycleEntry(entry)
		return
	}
	switch entry.kind {
	case pendPassthrough, pendDirect:
		resp.ID = entry.origID
		g.reply(entry.replyFrom, entry.clientSrc, resp)
	case pendChild:
		s.answerChild(entry, resp)
	case pendProbe:
		// Half-open probe answered: the noteSuccess above already
		// closed the breaker. Nothing to relay.
	}
	s.recycleEntry(entry)
}

// answerChild turns the ANS's answer for the restored child query (message
// 5) into the response for the fabricated name (message 6).
func (s *remoteShard) answerChild(entry *pendEntry, resp *dnswire.Message) {
	g := s.g
	out := &dnswire.Message{
		ID:        entry.origID,
		Flags:     dnswire.Flags{QR: true, AA: true},
		Questions: []dnswire.Question{entry.question},
	}
	fabName := entry.question.Name

	switch {
	case resp.Flags.RCode == dnswire.RCodeNXDomain:
		out.Flags.RCode = dnswire.RCodeNXDomain
		out.Authority = resp.Authority
	case len(resp.Answers) == 0 && hasNS(resp.Authority):
		// Referral: the fabricated name's addresses are the real
		// next-level servers' glue addresses (§III-B.1).
		for _, rr := range resp.Additional {
			if rr.Type == dnswire.TypeA {
				out.Answers = append(out.Answers,
					dnswire.NewRR(fabName, rr.TTL, rr.Data))
			}
		}
		if len(out.Answers) == 0 {
			out.Flags.RCode = dnswire.RCodeServFail
		}
	case len(resp.Answers) > 0:
		// Non-referral: answer with the IP cookie (§III-B.2) and cache
		// the real answer for message 7.
		if !g.cfg.Subnet.IsValid() {
			out.Flags.RCode = dnswire.RCodeServFail
			break
		}
		g.charge(g.cfg.Costs.CookieCheck) // second cookie computation
		c := g.cfg.Auth.Mint(entry.clientSrc.Addr())
		addr, err := g.ipc.Encode(c)
		if err != nil {
			out.Flags.RCode = dnswire.RCodeServFail
			break
		}
		if g.cfg.AnswerCacheTTL > 0 {
			ttl := uint32(g.cfg.AnswerCacheTTL / time.Second)
			cached := make([]dnswire.RR, len(resp.Answers))
			copy(cached, resp.Answers)
			for i := range cached {
				if cached[i].TTL > ttl {
					cached[i].TTL = ttl
				}
			}
			g.answers.Put(g.now(), entry.child, entry.question.Type, cached)
		}
		out.Answers = []dnswire.RR{
			dnswire.NewRR(fabName, g.cfg.NSTTL, &dnswire.AData{Addr: addr}),
		}
	default:
		// NODATA for the child: nothing useful to fabricate.
		out.Flags.RCode = dnswire.RCodeServFail
	}
	g.reply(entry.replyFrom, entry.clientSrc, out)
}

// answersGet consults the non-referral answer cache unless it is disabled.
func (g *Remote) answersGet(name dnswire.Name, t dnswire.Type) ([]dnswire.RR, dnswire.RCode, bool, bool) {
	if g.cfg.AnswerCacheTTL < 0 {
		return nil, 0, false, false
	}
	return g.answers.Get(g.now(), name, t)
}

// reply packs and emits a guard-originated response.
func (g *Remote) reply(from, to netip.AddrPort, msg *dnswire.Message) {
	wire, err := msg.PackUDP(dnswire.MaxUDPSize)
	if err != nil {
		return
	}
	atomic.AddUint64(&g.Stats.RepliesToClient, 1)
	g.charge(g.cfg.Costs.PacketOp)
	_ = g.cfg.IO.WriteFromTo(from, to, wire)
}

func hasNS(rrs []dnswire.RR) bool {
	for _, rr := range rrs {
		if rr.Type == dnswire.TypeNS {
			return true
		}
	}
	return false
}
