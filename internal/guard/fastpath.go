// Zero-allocation wire-to-wire fast path for verified sources.
//
// The materializing pipeline (handle → Unpack → handleNSCookie → NewQuery →
// PackUDP, and its upstream mirror Unpack → answerChild → PackUDP) allocates
// a Message, name strings, and a packed wire per packet. For a source that
// is already in the engine's verified cache none of that structure is
// consulted — the guard only needs the cookie label bytes (to compare
// against the cached credential), the question span (to rewrite and
// forward), and on the way back the response's rcode and glue addresses (to
// fabricate message 6). This file handles that traffic as dnswire.View reads
// over the borrowed slabs — the record walker (View.Records) for the ANS's
// referral — with entry-owned reused byte buffers in the pending NAT table
// and per-shard scratch buffers for the outgoing wires.
//
// The contract with the materializing path is strict equivalence: a fast
// handler either *commits* — in which case every counter, every CPU charge,
// and every emitted byte is identical to what the materializing path would
// have produced — or it *bails* before any observable effect and the
// materializing path runs as if the fast path did not exist. Anything
// unusual (answer records, NXDOMAIN with authority, authority other than
// NS, compressed question names, non-ASCII names, mixed-case echoes,
// replies PackUDP would truncate, reserved flag bits on a raw-relay shape)
// bails. Deterministic replays with FastPathTTL == 0 never enter any of
// these functions.

package guard

import (
	"bytes"
	"net/netip"
	"sync/atomic"

	"dnsguard/internal/dnswire"
)

// flagsZMask covers the reserved Z bits, the one part of the flags word that
// dnswire.Unpack→Pack does not round-trip (packFlags writes them as zero). A
// raw-relay shape with a Z bit set would repack differently, so it bails to
// the materializing path.
const flagsZMask = 0x0070

// entryPoolCap bounds each shard's pendEntry free list. Entries beyond the
// cap fall to the GC; the steady-state in-flight population is bounded by
// maxPending anyway.
const entryPoolCap = 512

// getEntryLocked pops a pooled pendEntry (caller holds s.mu).
func (s *remoteShard) getEntryLocked() *pendEntry {
	if n := len(s.entryPool); n > 0 {
		e := s.entryPool[n-1]
		s.entryPool[n-1] = nil
		s.entryPool = s.entryPool[:n-1]
		return e
	}
	return &pendEntry{}
}

// putEntryLocked returns a consumed fast entry to the shard pool, keeping its
// wire buffers' capacity (caller holds s.mu). Entries the materializing path
// allocated are not pooled — their lifetime was never under this file's
// control.
func (s *remoteShard) putEntryLocked(e *pendEntry) {
	if e == nil || !e.fast || len(s.entryPool) >= entryPoolCap {
		return
	}
	q, f := e.qwire[:0], e.fwdWire[:0]
	*e = pendEntry{qwire: q, fwdWire: f}
	s.entryPool = append(s.entryPool, e)
}

// recycleEntry is putEntryLocked for callers not holding s.mu.
func (s *remoteShard) recycleEntry(e *pendEntry) {
	s.mu.Lock()
	s.putEntryLocked(e)
	s.mu.Unlock()
}

// materializeFastLocked fills the decoded fields of a fast entry so the
// materializing upstream path can run its question-echo comparison and
// answerChild transformation on it (caller holds s.mu). Only responses the
// fast upstream path bails on — answers, NXDOMAIN with authority, mixed-case
// echoes, replies PackUDP would truncate — pay this cost, and only once per
// entry; referrals and empty responses are fabricated on the wire.
func (s *remoteShard) materializeFastLocked(entry *pendEntry) {
	if q, _, err := dnswire.UnpackQuestion(entry.fwdWire); err == nil {
		entry.fwdQ = q
	}
	if entry.kind == pendChild {
		entry.child = entry.fwdQ.Name
		if q, _, err := dnswire.UnpackQuestion(entry.qwire); err == nil {
			entry.question = q
		}
	}
}

// appendFolded appends b to dst with ASCII uppercase folded to lowercase.
// Length octets (< 64) and the terminator pass through unchanged, so folding
// a whole name span yields the canonical wire encoding dnswire.Pack emits.
func appendFolded(dst, b []byte) []byte {
	for _, c := range b {
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		dst = append(dst, c)
	}
	return dst
}

// isHexLower reports whether c is a lowercase hex digit — what remains of
// cookie-label hex after ASCII folding. Mirrors cookie.NSCodec.DecodeLabel's
// accept set (hex.DecodeString after ToLower).
func isHexLower(c byte) bool {
	return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')
}

// viewFastShape reports whether v covers the whole datagram with exactly one
// question and nothing else — the only shape the fast paths touch.
func viewFastShape(v dnswire.View, n int) bool {
	return v.QDCount() == 1 && v.ANCount() == 0 && v.NSCount() == 0 &&
		v.ARCount() == 0 && v.End() == n
}

// tryFastNS handles a cookie-labeled query from a verified source without
// materializing it: parse in place, compare the folded label against the
// cached credential, rewrite, forward. Returns false (bail) unless the
// packet is certain to reach handleNSCookie with a verified-cache hit; on
// true the packet is fully handled with effects identical to that path.
func (s *remoteShard) tryFastNS(pkt Packet) bool {
	g := s.g
	if !g.eng.FastPathEnabled() {
		return false
	}
	payload := pkt.Payload
	if len(payload) > dnswire.MaxUDPSize || pkt.Dst.Addr() != g.cfg.PublicAddr.Addr() {
		// Off-public destinations can hit the subnet (IP-cookie) branch;
		// only the exact public address is guaranteed to classify as an
		// NS-label query.
		return false
	}
	v, ok := dnswire.ParseView(payload)
	if !ok || v.QR() || !viewFastShape(v, len(payload)) {
		return false
	}
	first := v.FirstLabel()
	pl := g.nsPrefixLen
	if len(first) <= pl {
		return false
	}
	// Fold the would-be cookie label into the shard's credential scratch
	// ("ns:" + label, exactly the credential handleNSCookie builds from the
	// canonical name) and shape-check it: prefix match plus hex digits,
	// mirroring NSCodec.IsCookieLabel.
	cred := s.credBuf
	for i := 0; i < pl; i++ {
		c := first[i]
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		cred[3+i] = c
	}
	for i := 0; i < len(g.nsPrefix); i++ {
		if cred[3+i] != g.nsPrefix[i] {
			return false
		}
	}
	for _, c := range cred[3+len(g.nsPrefix) : 3+pl] {
		if !isHexLower(c) {
			return false
		}
	}
	if !g.eng.VerifiedCredMatchOn(s.id, pkt.Src.Addr(), cred) {
		// Miss, expired, or credential mismatch: no counter was touched, and
		// the materializing path's own VerifiedCredOn probe will do the
		// hit/miss accounting exactly as before.
		return false
	}
	// Committed. From here every effect mirrors handleNSCookie on a
	// fastPath() hit.
	atomic.AddUint64(&g.Stats.FastPathHits, 1)
	atomic.AddUint64(&g.Stats.CookieValid, 1)
	if !s.rl2.AllowRequest(pkt.Src.Addr(), g.now()) {
		atomic.AddUint64(&g.Stats.RL2Dropped, 1)
		return true
	}
	g.charge(g.cfg.Costs.Rewrite)
	s.forwardFastNS(pkt, v, pl)
	return true
}

// forwardFastNS rewrites the cookie-labeled question to the restored child
// name and forwards it, registering a fast pending entry. The assembled wire
// is byte-identical to PackUDP(NewQuery(0, child, qtype) with RD=false): a
// 12-byte header, the first label with the cookie prefix stripped, the rest
// of the name folded to canonical case, the client's qtype, and class IN
// (NewQuery forces IN regardless of the client's class).
func (s *remoteShard) forwardFastNS(pkt Packet, v dnswire.View, pl int) {
	g := s.g
	target := g.cfg.ANSAddr
	if s.health != nil {
		up, ok := s.health.pick()
		if !ok {
			atomic.AddUint64(&g.Stats.FailClosedDrops, 1)
			return
		}
		if up != g.cfg.ANSAddr {
			atomic.AddUint64(&g.Stats.Failovers, 1)
		}
		target = up
	}
	qw := v.QuestionWire()
	name := v.QNameWire()
	first := v.FirstLabel()

	// Assemble the forward wire in the shard scratch first — entry buffers
	// must not be touched after the entry is published, since the upstream
	// loop may consume it the moment it is in the table.
	wire := append(s.wireBuf[:0],
		0, 0, // ID patched below
		0, 0, // flags: query, RD off
		0, 1, 0, 0, 0, 0, 0, 0)
	wire = append(wire, byte(len(first)-pl))
	wire = appendFolded(wire, first[pl:])
	wire = appendFolded(wire, name[1+len(first):])
	wire = append(wire, qw[len(name)], qw[len(name)+1], 0x00, 0x01)
	s.wireBuf = wire[:0]

	expires := g.now() + g.cfg.PendingTimeout
	s.mu.Lock()
	entry := s.getEntryLocked()
	entry.kind = pendChild
	entry.fast = true
	entry.clientSrc = pkt.Src
	entry.replyFrom = pkt.Dst
	entry.origID = v.ID()
	entry.upstream = target
	entry.expires = expires
	// qwire: the client's question span with the name folded to canonical
	// case — the reply fabrication template and, if the materializing path
	// consumes this entry, the source for entry.question.
	entry.qwire = appendFolded(entry.qwire[:0], qw[:len(name)])
	entry.qwire = append(entry.qwire, qw[len(name):]...)
	// fwdWire: the forwarded question span; upstream responses must echo it.
	entry.fwdWire = append(entry.fwdWire[:0], wire[12:]...)
	id, ok := s.allocID()
	if !ok {
		s.putEntryLocked(entry)
		s.mu.Unlock()
		atomic.AddUint64(&g.Stats.PendingDropped, 1)
		return
	}
	s.pending[id] = entry
	s.mu.Unlock()
	wire[0], wire[1] = byte(id>>8), byte(id)
	atomic.AddUint64(&g.Stats.ForwardedToANS, 1)
	g.charge(g.cfg.Costs.PacketOp)
	_ = s.upstream.WriteTo(wire, target)
}

// tryFastPassthrough relays an inactive-guard (or tripped-shard) query
// without materializing it: the raw datagram is forwarded with only the
// transaction ID rewritten. Committing requires the raw bytes to be exactly
// what Unpack→PackUDP would emit — canonical-case name, no reserved flag
// bits, single question at the datagram edge — so the relayed wire is
// byte-identical to the materializing path's.
func (s *remoteShard) tryFastPassthrough(pkt Packet) bool {
	g := s.g
	if !g.eng.FastPathEnabled() {
		return false
	}
	payload := pkt.Payload
	if len(payload) > dnswire.MaxUDPSize {
		return false
	}
	v, ok := dnswire.ParseView(payload)
	if !ok || v.QR() || v.RawFlags()&flagsZMask != 0 || !viewFastShape(v, len(payload)) {
		return false
	}
	for _, b := range v.QNameWire() {
		if b >= 'A' && b <= 'Z' {
			return false // repack would fold the name; relay raw only if it's a no-op
		}
	}
	atomic.AddUint64(&g.Stats.Passthrough, 1)
	target := g.cfg.ANSAddr
	if s.health != nil {
		up, ok := s.health.pick()
		if !ok {
			atomic.AddUint64(&g.Stats.FailClosedDrops, 1)
			return true
		}
		if up != g.cfg.ANSAddr {
			atomic.AddUint64(&g.Stats.Failovers, 1)
		}
		target = up
	}
	expires := g.now() + g.cfg.PendingTimeout
	s.mu.Lock()
	entry := s.getEntryLocked()
	entry.kind = pendPassthrough
	entry.fast = true
	entry.clientSrc = pkt.Src
	entry.replyFrom = pkt.Dst
	entry.origID = v.ID()
	entry.upstream = target
	entry.expires = expires
	entry.qwire = entry.qwire[:0]
	entry.fwdWire = append(entry.fwdWire[:0], v.QuestionWire()...)
	id, ok := s.allocID()
	if !ok {
		s.putEntryLocked(entry)
		s.mu.Unlock()
		atomic.AddUint64(&g.Stats.PendingDropped, 1)
		return true
	}
	s.pending[id] = entry
	s.mu.Unlock()
	// The payload is the shard's borrowed ingress buffer; patching the ID in
	// place is safe (nothing re-reads it) and the write interface copies.
	payload[0], payload[1] = byte(id>>8), byte(id)
	atomic.AddUint64(&g.Stats.ForwardedToANS, 1)
	g.charge(g.cfg.Costs.PacketOp)
	_ = s.upstream.WriteTo(payload, target)
	return true
}

// tryFastUpstream consumes an ANS response for a fast pending entry without
// materializing it. It commits only when the response comes from the
// entry's upstream, echoes the forwarded question byte-for-byte as the sole
// question, and has a shape the entry's wire arm reproduces exactly: for a
// raw relay, no records at all; for a child query, any shape childAnswers
// plans. Everything else — answers, NXDOMAIN with authority, non-NS
// authority, case deviations, wrong question, wrong source, missing or
// materializing entry — bails with the entry untouched, and the
// materializing path re-derives its own verdict (spoofed, stray, or a real
// answer) exactly as before.
func (s *remoteShard) tryFastUpstream(payload []byte, src netip.AddrPort) bool {
	g := s.g
	v, ok := dnswire.ParseView(payload)
	if !ok || !v.QR() || v.QDCount() != 1 {
		return false
	}
	id := v.ID()
	s.mu.Lock()
	entry, ok := s.pending[id]
	if !ok || !entry.fast || src != entry.upstream ||
		!bytes.Equal(v.QuestionWire(), entry.fwdWire) {
		s.mu.Unlock()
		return false
	}
	var reply []byte
	if entry.kind == pendChild {
		// answerChild's message 6, built while the entry is still in the
		// table so a bail leaves it for the materializing path: header
		// {QR, AA, rcode}, the client's question, then the planned answers,
		// whose owner PackUDP would compress to the question name at offset
		// 12 (a fabricated name is never the root, which Pack leaves
		// uncompressed).
		reply = append(s.upBuf[:0],
			byte(entry.origID>>8), byte(entry.origID),
			0x84, 0, // QR|AA, opcode 0; rcode patched below
			0, 1, 0, 0, 0, 0, 0, 0)
		reply = append(reply, entry.qwire...)
		q := len(reply)
		var rcode dnswire.RCode
		rcode, reply, ok = childAnswers(v, reply)
		ok = ok && len(reply) <= dnswire.MaxUDPSize // else PackUDP truncates
		n := (len(reply) - q) / glueAnswerLen
		reply[3], reply[6], reply[7] = byte(rcode), byte(n>>8), byte(n)
		s.upBuf = reply[:0]
	} else {
		// Raw relay must repack as a no-op: no records, and no Z bits
		// (the materializing path would clear them).
		ok = viewFastShape(v, len(payload)) && v.RawFlags()&flagsZMask == 0
	}
	if !ok {
		s.mu.Unlock()
		return false
	}
	expired := g.now() >= entry.expires
	delete(s.pending, id)
	s.ids.release(id)
	s.mu.Unlock()
	if s.health != nil {
		s.health.noteSuccess(src)
	}
	if expired {
		atomic.AddUint64(&g.Stats.PendingDropped, 1)
		s.recycleEntry(entry)
		return true
	}
	switch entry.kind {
	case pendChild:
		g.replyWire(entry.replyFrom, entry.clientSrc, reply)
	default: // pendPassthrough (pendDirect entries are never fast)
		payload[0], payload[1] = byte(entry.origID>>8), byte(entry.origID)
		g.replyWire(entry.replyFrom, entry.clientSrc, payload)
	}
	s.recycleEntry(entry)
	return true
}

// glueAnswerLen is one fabricated glue answer: owner pointer C0 0C, type A,
// class IN, TTL, RDLENGTH 4, the address.
const glueAnswerLen = 16

// childAnswers plans answerChild's message 6 for the ANS response v without
// materializing it: the reply rcode, with the answer records appended to dst
// in wire form. ok is true only for the shapes whose fabrication is the
// client's question plus these answers:
//
//   - NXDOMAIN with no authority records → NXDOMAIN, no answers;
//   - a referral (no answers, authority all IN NS) → one answer per A record
//     in additional, in order, carrying the glue TTL and address; SERVFAIL
//     when there is none;
//   - no answers and no authority → SERVFAIL.
//
// Everything else bails: answers (the IP-cookie arm), NXDOMAIN with
// authority (answerChild copies it), authority records other than IN NS,
// glue of a class other than IN, and any record the walker cannot prove
// Unpack accepts. Other additional records (AAAA glue, OPT) are read and
// skipped, as answerChild skips them.
func childAnswers(v dnswire.View, dst []byte) (dnswire.RCode, []byte, bool) {
	nx := dnswire.RCode(v.RawFlags()&0xF) == dnswire.RCodeNXDomain
	if v.ANCount() != 0 || (nx && v.NSCount() != 0) {
		return 0, dst, false
	}
	start := len(dst)
	w := v.Records()
	for rr, ok := w.Next(); ok; rr, ok = w.Next() {
		switch {
		case rr.Section == dnswire.SectionAuthority:
			if rr.Type != dnswire.TypeNS || rr.Class != dnswire.ClassINET {
				return 0, dst, false
			}
		case rr.Type == dnswire.TypeA:
			if rr.Class != dnswire.ClassINET {
				return 0, dst, false
			}
			dst = append(dst, 0xC0, 12, 0, 1, 0, 1,
				byte(rr.TTL>>24), byte(rr.TTL>>16), byte(rr.TTL>>8), byte(rr.TTL), 0, 4)
			dst = append(dst, rr.Data...)
		}
	}
	switch {
	case !w.Done():
		return 0, dst, false
	case nx:
		return dnswire.RCodeNXDomain, dst[:start], true
	case v.NSCount() > 0 && len(dst) > start:
		return dnswire.RCodeNoError, dst, true
	default:
		return dnswire.RCodeServFail, dst[:start], true
	}
}

// replyWire emits an already-packed guard response: g.reply with the packing
// hoisted out. Counters and charges are identical.
func (g *Remote) replyWire(from, to netip.AddrPort, wire []byte) {
	atomic.AddUint64(&g.Stats.RepliesToClient, 1)
	g.charge(g.cfg.Costs.PacketOp)
	_ = g.cfg.IO.WriteFromTo(from, to, wire)
}
