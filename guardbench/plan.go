package main

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
)

// Source address plan. All traffic stays on 127/8, which the loopback
// interface owns entirely, so one 0.0.0.0-bound socket can send from (and
// receive for) any of these addresses.
const (
	population   = 4094       // returning resolvers: with the probe and the attacker, the verified cache's 4096 per-shard entries
	resolverBase = 0x7f010000 // 127.1.0.0 + i, i < population
	attackerAddr = 0x7f020001 // 127.2.0.1: the attacker's one genuine address
	newcomerBase = 0x7f400000 // 127.64.0.0/10: never-seen newcomers
	newcomerSpan = 1 << 22
	spoofBase    = 0x7f800000 // 127.128.0.0/9: spoofed sources
	spoofSpan    = 1<<23 - 1  // excludes 127.255.255.255, the loopback broadcast
	planDraws    = 1 << 16
)

// plan is a workload's seeded traffic: the child each op asks about (Zipf
// θ=1 over the zone's children, ranks permuted by the seed), the starting
// points of the never-repeating newcomer and spoofed source sequences, and
// the IDs forged queries carry. Everything the load generator sends is a
// function of the plan, the zone and the labels the guard grants.
type plan struct {
	children  []uint16
	forgedIDs []uint16
	newStart  uint32
	spoofFrom uint32
}

func newPlan(seed int64, nChildren int) plan {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	perm := rng.Perm(nChildren)
	cdf := make([]float64, nChildren)
	var sum float64
	for i := range cdf {
		sum += 1 / float64(i+1)
		cdf[i] = sum
	}
	p := plan{
		children:  make([]uint16, planDraws),
		forgedIDs: make([]uint16, planDraws),
		newStart:  uint32(rng.Intn(newcomerSpan)),
		spoofFrom: uint32(rng.Intn(spoofSpan)),
	}
	for i := range p.children {
		u := rng.Float64() * sum
		r := sort.SearchFloat64s(cdf, u)
		p.children[i] = uint16(perm[min(r, nChildren-1)])
		p.forgedIDs[i] = uint16(rng.Intn(math.MaxUint16 + 1))
	}
	return p
}

// child returns the i-th child draw (the sequence repeats every planDraws).
func (p *plan) child(i uint64) int { return int(p.children[i%planDraws]) }

// newcomer returns the address of the i-th never-seen source.
func (p *plan) newcomer(i uint64) uint32 {
	return newcomerBase + uint32((uint64(p.newStart)+i)%newcomerSpan)
}

// spoofed returns the address of the i-th forged query's source.
func (p *plan) spoofed(i uint64) uint32 {
	return spoofBase + uint32((uint64(p.spoofFrom)+i)%spoofSpan)
}

func addr4(a uint32) [4]byte {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], a)
	return b
}
