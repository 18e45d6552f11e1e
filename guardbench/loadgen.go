package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"syscall"
	"time"
)

// The load generator is one bench-owned event loop on one thread. It drives
// a closed loop against the guard from a single client socket and answers
// the guard's upstream queries from a second socket (the ANS fixture). Its
// per-datagram work is this file and sockets.go only — no repository code
// — so its CPU per op is a fixed reference for the host's speed.

const (
	labelLen = 10 // cookie label: "pr" + 8 hex digits
	slotBits = 10
	// opTimeout is how long an op waits for its reply before it counts as
	// failed. It is longer than the guard's pending timeout (3 s), after
	// which the guard has forgotten a forwarded query: an op that waited
	// this long was lost by the guard or the kernel, not merely delayed
	// while this low-priority thread was not scheduled.
	opTimeout  = 5 * time.Second
	captureMax = 4096
)

type opKind uint8

const (
	opIdle   opKind = iota
	opGrant         // cookie-less query, expects a grant, then turns into opAnswer
	opAnswer        // cookie-labeled query, expects the child's glue
)

// slot is one outstanding op of the closed loop.
type slot struct {
	kind  opKind
	gen   uint16
	id    uint16
	src   [4]byte
	child int
	who   int // resolver whose label the exchange sets; -1 none, -2 the attacker
	label [labelLen]byte
	q     [96]byte // question section last sent
	qlen  int
	sent  time.Duration
}

// counters are the load generator's tallies. attempted/ops/failed count
// legit ops (an exchange is one op); the rest count datagrams.
type counters struct {
	attempted, ops, failed  int64
	sent, forged            int64
	grants, answers         int64
	newSources              int64
	fixtureQueries, missing int64
	badReplies, spoofed     int64
	stale                   int64
	wakeups                 int64 // event-loop wake-ups, for the run record
}

func (c counters) sub(o counters) counters { return c.add(o.scale(-1)) }

func (c counters) add(o counters) counters {
	return counters{
		c.attempted + o.attempted, c.ops + o.ops, c.failed + o.failed,
		c.sent + o.sent, c.forged + o.forged,
		c.grants + o.grants, c.answers + o.answers,
		c.newSources + o.newSources,
		c.fixtureQueries + o.fixtureQueries, c.missing + o.missing,
		c.badReplies + o.badReplies, c.spoofed + o.spoofed,
		c.stale + o.stale, c.wakeups + o.wakeups,
	}
}

func (c counters) scale(k int64) counters {
	return counters{
		k * c.attempted, k * c.ops, k * c.failed, k * c.sent, k * c.forged,
		k * c.grants, k * c.answers, k * c.newSources, k * c.fixtureQueries,
		k * c.missing, k * c.badReplies, k * c.spoofed, k * c.stale, k * c.wakeups,
	}
}

// capture holds copies of the first datagrams of each kind a phase moved,
// for the layer replay.
type capture struct {
	on                        bool
	queries, replies, answers [][]byte
	querySrcs                 [][4]byte
}

func (c *capture) add(dst *[][]byte, b []byte) {
	if c.on && len(*dst) < captureMax {
		*dst = append(*dst, append([]byte(nil), b...))
	}
}

// warmItem is one cookie exchange of the set-up: who is the resolver whose
// label it sets, -1 for none, -2 for the attacker.
type warmItem struct {
	src [4]byte
	who int
}

type loadgen struct {
	wl       string
	zd       zoneData
	p        plan
	table    map[string][]byte
	cfd, afd int
	cport    uint16
	aport    uint16
	upPort   uint16 // the guard's upstream socket, learned from its forwards
	guard    [4]byte
	gport    uint16
	ctx, crx *batch
	atx, arx *batch
	fds      [2]pollfd
	start    time.Time

	slots     []slot
	labels    [][labelLen]byte // per resolver, set by the warm-up
	attacker  [labelLen]byte
	draw      uint64 // next child draw
	cursor    int    // next resolver (verified ops)
	nextNew   uint64 // next newcomer source
	nextSpoof uint64 // next spoofed source
	forgedPer int

	// warm-up work list, issued in order.
	warmItems []warmItem
	warmNext  int

	c        counters
	firstErr error
	cap      capture
	scratch  [256]byte
}

func newLoadgen(wl string, zd zoneData, p plan, table map[string][]byte, window int) (*loadgen, error) {
	lg := &loadgen{
		wl: wl, zd: zd, p: p, table: table,
		ctx: newBatch(true), crx: newBatch(true),
		atx: newBatch(false), arx: newBatch(false),
		slots:  make([]slot, window),
		labels: make([][labelLen]byte, population),
		start:  time.Now(),
	}
	if window > 1<<slotBits {
		return nil, fmt.Errorf("window %d exceeds %d slots", window, 1<<slotBits)
	}
	if wl == "spoof-flood" {
		lg.forgedPer = 4
	}
	var err error
	if lg.cfd, lg.cport, err = udpSocket([4]byte{}, true); err != nil {
		return nil, err
	}
	if lg.afd, lg.aport, err = udpSocket([4]byte{127, 0, 0, 1}, false); err != nil {
		lg.close()
		return nil, err
	}
	lg.fds = [2]pollfd{{fd: int32(lg.afd)}, {fd: int32(lg.cfd)}}
	return lg, nil
}

func (lg *loadgen) close() {
	for _, fd := range []int{lg.cfd, lg.afd} {
		if fd > 0 {
			syscall.Close(fd)
		}
	}
}

func (lg *loadgen) now() time.Duration { return time.Since(lg.start) }

func (lg *loadgen) fail(format string, args ...any) {
	if lg.firstErr == nil {
		lg.firstErr = fmt.Errorf(format, args...)
	}
}

// target points the generator at a (re)started guard.
func (lg *loadgen) target(addr [4]byte, port uint16) {
	lg.guard, lg.gport = addr, port
	for i := range lg.slots {
		lg.slots[i].kind = opIdle
	}
}

// putQuery writes a query for child c, with label prepended to the child's
// first label when given, and records its question section in s.
func (lg *loadgen) putQuery(buf []byte, id uint16, label []byte, c int, s *slot) int {
	ch := &lg.zd.children[c]
	binary.BigEndian.PutUint16(buf[0:], id)
	copy(buf[2:], []byte{0, 0, 0, 1, 0, 0, 0, 0, 0, 0})
	n := 12
	buf[n] = byte(len(label) + len(ch.label))
	n++
	n += copy(buf[n:], label)
	n += copy(buf[n:], ch.label)
	n += copy(buf[n:], []byte{3, 'c', 'o', 'm', 0, 0, 1, 0, 1})
	if s != nil {
		s.qlen = copy(s.q[:], buf[12:n])
	}
	return n
}

// send issues the slot's current query (kind, src, child, label set).
func (lg *loadgen) send(s *slot, idx int) {
	s.gen++
	s.id = uint16(s.gen)<<slotBits | uint16(idx)
	var label []byte
	if s.kind == opAnswer {
		label = s.label[:]
	}
	buf := lg.ctx.next()
	n := lg.putQuery(buf, s.id, label, s.child, s)
	lg.cap.add(&lg.cap.queries, buf[:n])
	if lg.cap.on && len(lg.cap.querySrcs) < captureMax {
		lg.cap.querySrcs = append(lg.cap.querySrcs, s.src)
	}
	lg.ctx.commit(n, lg.guard, lg.gport, s.src)
	lg.c.sent++
	s.sent = lg.now()
	if lg.ctx.full() {
		lg.flushClient()
	}
}

// sendForged queues one query from a never-repeating spoofed source,
// carrying the label the guard minted for the attacker's own address.
func (lg *loadgen) sendForged() {
	i := lg.nextSpoof
	lg.nextSpoof++
	buf := lg.ctx.next()
	n := lg.putQuery(buf, lg.p.forgedIDs[i%planDraws], lg.attacker[:], lg.p.child(lg.draw), nil)
	lg.draw++
	src := addr4(lg.p.spoofed(i))
	lg.cap.add(&lg.cap.queries, buf[:n])
	if lg.cap.on && len(lg.cap.querySrcs) < captureMax {
		lg.cap.querySrcs = append(lg.cap.querySrcs, src)
	}
	lg.ctx.commit(n, lg.guard, lg.gport, src)
	lg.c.sent++
	lg.c.forged++
	if lg.ctx.full() {
		lg.flushClient()
	}
}

func (lg *loadgen) flushClient() {
	if err := lg.ctx.flush(lg.cfd); err != nil {
		lg.fail("client socket: %v", err)
	}
}

// startOp fills an idle slot with the phase's next op. It returns false
// when the phase has nothing more to issue.
func (lg *loadgen) startOp(s *slot, idx int, warm bool) bool {
	s.child = lg.p.child(lg.draw)
	lg.draw++
	s.who = -1
	switch {
	case warm && lg.warmNext < len(lg.warmItems):
		it := lg.warmItems[lg.warmNext]
		s.kind, s.who, s.src = opGrant, it.who, it.src
		lg.warmNext++
	case warm:
		return false
	case lg.wl == "newcomer-churn":
		s.kind = opGrant
		s.src = addr4(lg.p.newcomer(lg.nextNew))
		lg.nextNew++
		lg.c.newSources++
	default:
		r := lg.cursor
		lg.cursor = (lg.cursor + 1) % population
		s.kind = opAnswer
		s.src = addr4(resolverBase + uint32(r))
		s.label = lg.labels[r]
		for k := 0; k < lg.forgedPer; k++ {
			lg.sendForged()
		}
	}
	lg.c.attempted++
	lg.send(s, idx)
	return true
}

// onReply checks one datagram the guard sent to the client socket.
func (lg *loadgen) onReply(p []byte, dst [4]byte, ok bool) {
	lg.cap.add(&lg.cap.replies, p)
	if !ok {
		lg.c.badReplies++
		lg.fail("reply without a destination address")
		return
	}
	if binary.BigEndian.Uint32(dst[:])&0xff800000 == spoofBase {
		lg.c.spoofed++
		lg.fail("guard sent a datagram to spoofed source %d.%d.%d.%d", dst[0], dst[1], dst[2], dst[3])
		return
	}
	if len(p) < 12 {
		lg.c.badReplies++
		lg.fail("short reply (%d bytes)", len(p))
		return
	}
	id := binary.BigEndian.Uint16(p)
	idx := int(id & (1<<slotBits - 1))
	if idx >= len(lg.slots) {
		lg.c.stale++
		return
	}
	s := &lg.slots[idx]
	if s.kind == opIdle || s.id != id || s.src != dst {
		lg.c.stale++ // answer to an op that already timed out
		return
	}
	switch s.kind {
	case opGrant:
		if err := lg.checkGrant(p, s); err != nil {
			lg.c.badReplies++
			lg.c.failed++
			lg.fail("grant for %s: %v", lg.zd.children[s.child].label, err)
			s.kind = opIdle
			return
		}
		lg.c.grants++
		s.kind = opAnswer
		lg.send(s, idx)
	case opAnswer:
		if err := lg.checkAnswer(p, s); err != nil {
			lg.c.badReplies++
			lg.c.failed++
			lg.fail("answer for %s: %v", lg.zd.children[s.child].label, err)
			s.kind = opIdle
			return
		}
		lg.c.answers++
		lg.c.ops++
		switch {
		case s.who >= 0:
			lg.labels[s.who] = s.label
		case s.who == -2:
			lg.attacker = s.label
		}
		s.kind = opIdle
	}
}

// onQuery answers one query the guard forwarded to the ANS fixture.
func (lg *loadgen) onQuery(p []byte, from [4]byte, port uint16) {
	lg.c.fixtureQueries++
	lg.upPort = port
	if len(p) < 12 {
		lg.c.missing++
		lg.fail("fixture: short query")
		return
	}
	resp, ok := lg.table[string(p[12:])]
	if !ok {
		lg.c.missing++
		lg.fail("fixture: query names no zone child")
		return
	}
	buf := lg.atx.next()
	n := copy(buf, resp)
	buf[0], buf[1] = p[0], p[1]
	lg.cap.add(&lg.cap.answers, buf[:n])
	lg.atx.commit(n, from, port, [4]byte{})
	if lg.atx.full() {
		lg.flushFixture()
	}
}

func (lg *loadgen) flushFixture() {
	if err := lg.atx.flush(lg.afd); err != nil {
		lg.fail("fixture socket: %v", err)
	}
}

// warm runs the exchanges of items to completion and reports how many
// failed.
func (lg *loadgen) warm(items []warmItem) (int64, error) {
	lg.warmItems, lg.warmNext = items, 0
	before := lg.c.failed
	err := lg.run(true, 0, 0, nil)
	return lg.c.failed - before, err
}

// run drives the closed loop. With warm set it runs the warm-up list to
// completion; otherwise it issues the workload's ops until until, calling
// tick at every multiple of tickEvery and a final time at until. Either
// way it then stops issuing and waits for every outstanding op.
func (lg *loadgen) run(warm bool, until time.Duration, tickEvery time.Duration, tick func(final bool)) error {
	issuing := true
	nextTick := lg.now() + tickEvery
	lastScan := lg.now()
	for {
		now := lg.now()
		if issuing && !warm && now >= until {
			issuing = false
			if tick != nil {
				tick(true)
			}
		}
		if tick != nil && issuing && now >= nextTick {
			tick(false)
			nextTick += tickEvery
		}
		busy := 0
		for i := range lg.slots {
			s := &lg.slots[i]
			if s.kind == opIdle && issuing {
				if !lg.startOp(s, i, warm) {
					issuing = false
				}
			}
			if s.kind != opIdle {
				busy++
			}
		}
		lg.flushClient()
		if !issuing && busy == 0 {
			return lg.firstErr
		}
		// The measured phases sleep a fixed tick rather than wait for
		// readiness: a generator woken by each datagram wakes as often as
		// the guard's runtime happens to pause, and on this kind of host
		// that count swings with the hypervisor's state, taking the
		// generator's CPU per op with it. A tick wakes it at most once per
		// period, and each wake finds a whole burst waiting. Set-up, whose
		// wall time is a metric, runs saturated instead: ticks would add a
		// fixed idle floor to it.
		if warm {
			if err := waitReadable(lg.fds[:], int64(5*time.Millisecond)); err != nil {
				return err
			}
		} else {
			sleepTick()
		}
		lg.c.wakeups++
		for {
			n, err := lg.arx.recv(lg.afd)
			if err != nil {
				return err
			}
			for i := 0; i < n; i++ {
				from, port := lg.arx.from(i)
				lg.onQuery(lg.arx.payload(i), from, port)
			}
			lg.flushFixture()
			if n < batchSlots {
				break
			}
		}
		for {
			n, err := lg.crx.recv(lg.cfd)
			if err != nil {
				return err
			}
			for i := 0; i < n; i++ {
				dst, ok := lg.crx.dst(i)
				lg.onReply(lg.crx.payload(i), dst, ok)
			}
			lg.flushClient()
			if n < batchSlots {
				break
			}
		}
		// Ops time out only after everything that arrived has been read,
		// so a reply that waits in the socket is never counted as lost.
		// Once issuing stops this also bounds the drain.
		if now := lg.now(); now-lastScan > 10*time.Millisecond {
			lastScan = now
			for i := range lg.slots {
				s := &lg.slots[i]
				if s.kind != opIdle && now-s.sent > opTimeout {
					s.kind = opIdle
					lg.c.failed++
				}
			}
		}
	}
}

// checkAnswer verifies a referral answer: NOERROR, the asked question
// echoed, and exactly one A record for the asked name carrying the child's
// glue address.
func (lg *loadgen) checkAnswer(p []byte, s *slot) error {
	if err := checkHeader(p, 1, 0, 0); err != nil {
		return err
	}
	off, err := checkQuestion(p, s)
	if err != nil {
		return err
	}
	off, ok := matchName(p, off, s.q[:s.qlen-4])
	if !ok {
		return fmt.Errorf("answer owner is not the asked name")
	}
	if off+14 != len(p) || binary.BigEndian.Uint16(p[off:]) != 1 || binary.BigEndian.Uint16(p[off+2:]) != 1 ||
		binary.BigEndian.Uint16(p[off+8:]) != 4 {
		return fmt.Errorf("answer is not one IN A record")
	}
	if !bytes.Equal(p[off+10:off+14], lg.zd.children[s.child].glue[:]) {
		return fmt.Errorf("answer address %v is not the child's glue", p[off+10:off+14])
	}
	return nil
}

// checkGrant verifies a grant: the question echoed and one NS record
// delegating the child to <label><child>.com, and takes the label.
func (lg *loadgen) checkGrant(p []byte, s *slot) error {
	if err := checkHeader(p, 0, 1, 0); err != nil {
		return err
	}
	off, err := checkQuestion(p, s)
	if err != nil {
		return err
	}
	ch := &lg.zd.children[s.child]
	off, ok := matchName(p, off, ch.wire)
	if !ok {
		return fmt.Errorf("grant owner is not the child")
	}
	if off+10 > len(p) || binary.BigEndian.Uint16(p[off:]) != 2 || binary.BigEndian.Uint16(p[off+2:]) != 1 {
		return fmt.Errorf("grant is not an IN NS record")
	}
	rdEnd := off + 10 + int(binary.BigEndian.Uint16(p[off+8:]))
	target, end, ok := readName(p, off+10, lg.scratch[:0])
	if !ok || end != rdEnd || end != len(p) {
		return fmt.Errorf("grant NS target is malformed")
	}
	n := len(ch.label)
	if len(target) != 1+labelLen+n+5 || int(target[0]) != labelLen+n || string(target[1:3]) != "pr" ||
		string(target[1+labelLen:1+labelLen+n]) != ch.label || string(target[1+labelLen+n:]) != "\x03com\x00" {
		return fmt.Errorf("grant NS target %q is not <label>%s.com", target, ch.label)
	}
	for _, c := range target[3 : 1+labelLen] {
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return fmt.Errorf("grant label %q is not hex", target[1:1+labelLen])
		}
	}
	copy(s.label[:], target[1:1+labelLen])
	return nil
}

func checkHeader(p []byte, an, ns, ar uint16) error {
	if p[2]&0x80 == 0 || p[2]&0x78 != 0 || p[3]&0x0f != 0 {
		return fmt.Errorf("flags %#04x: want a NOERROR response", binary.BigEndian.Uint16(p[2:]))
	}
	if binary.BigEndian.Uint16(p[4:]) != 1 || binary.BigEndian.Uint16(p[6:]) != an ||
		binary.BigEndian.Uint16(p[8:]) != ns || binary.BigEndian.Uint16(p[10:]) != ar {
		return fmt.Errorf("section counts %v: want 1/%d/%d/%d", p[4:12], an, ns, ar)
	}
	return nil
}

func checkQuestion(p []byte, s *slot) (int, error) {
	end := 12 + s.qlen
	if len(p) < end || !bytes.Equal(p[12:end], s.q[:s.qlen]) {
		return 0, fmt.Errorf("question not echoed")
	}
	return end, nil
}

// readName appends the (possibly compressed) name at off to dst in
// uncompressed wire form and returns it with the offset after the name.
func readName(p []byte, off int, dst []byte) ([]byte, int, bool) {
	end := -1
	for hops := 0; hops < 16; {
		if off >= len(p) {
			return nil, 0, false
		}
		l := int(p[off])
		switch {
		case l == 0:
			if end < 0 {
				end = off + 1
			}
			return append(dst, 0), end, true
		case l&0xc0 == 0xc0:
			if off+1 >= len(p) {
				return nil, 0, false
			}
			if end < 0 {
				end = off + 2
			}
			off = int(binary.BigEndian.Uint16(p[off:]) & 0x3fff)
			hops++
		case off+1+l > len(p) || l > 63:
			return nil, 0, false
		default:
			dst = append(dst, p[off:off+1+l]...)
			off += 1 + l
		}
	}
	return nil, 0, false
}

// matchName reports whether the name at off equals want (uncompressed
// wire form) and returns the offset after it.
func matchName(p []byte, off int, want []byte) (int, bool) {
	var buf [256]byte
	got, end, ok := readName(p, off, buf[:0])
	return end, ok && bytes.Equal(got, want)
}
