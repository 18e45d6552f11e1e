package main

import (
	"fmt"
	"math/rand"
	"net/netip"
	"strings"

	"dnsguard/internal/ans"
	"dnsguard/internal/dnswire"
	"dnsguard/internal/realnet"
	"dnsguard/internal/zone"
)

// The deployment under test guards a TLD-style zone: every child is a
// delegation with one NS record and one glue A record, so every answer the
// guard fabricates for a verified query is a referral.
const (
	zoneChildren = 10000
	glueTTL      = 172800
)

// child is one delegation of the generated zone.
type child struct {
	label string  // first label; the child's name is label + ".com."
	glue  [4]byte // address of ns1.<label>.com., the one glue record
	wire  []byte  // uncompressed wire form of label.com.
}

// zoneData is the seeded zone in both forms: master-file text (what the
// program parses) and the decoded child table (what the load generator
// checks answers against).
type zoneData struct {
	text     string
	children []child
}

const labelAlphabet = "abcdefghijklmnopqrstuvwxyz0123456789"

// genZone builds the zone for seed. Child labels are 5–12 characters and
// never start with the guard's cookie-label prefix "pr", so a cookie-less
// query for a child can never be read as a cookie-labeled one.
func genZone(seed int64) zoneData {
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[string]bool, zoneChildren)
	zd := zoneData{children: make([]child, 0, zoneChildren)}
	var b strings.Builder
	b.WriteString("$ORIGIN com.\n$TTL 172800\n")
	b.WriteString("@ IN SOA a.gtld-servers.net. nstld.verisign-grs.com. ( 1 1800 900 604800 86400 )\n")
	b.WriteString("@ IN NS a.gtld-servers.net.\n")
	for len(zd.children) < zoneChildren {
		n := 5 + rng.Intn(8)
		lb := make([]byte, n)
		for i := range lb {
			lb[i] = labelAlphabet[rng.Intn(len(labelAlphabet))]
		}
		label := string(lb)
		if seen[label] || strings.HasPrefix(label, "pr") {
			continue
		}
		seen[label] = true
		c := child{label: label, glue: [4]byte{10, byte(rng.Intn(256)), byte(rng.Intn(256)), byte(1 + rng.Intn(254))}}
		c.wire = append(append([]byte{byte(len(label))}, label...), 3, 'c', 'o', 'm', 0)
		zd.children = append(zd.children, c)
		fmt.Fprintf(&b, "%s IN NS ns1.%s\nns1.%s IN A %s\n", label, label, label, netip.AddrFrom4(c.glue))
	}
	zd.text = b.String()
	return zd
}

// fixtureTable is the ANS fixture's answer table: for each child, the
// question section the guard forwards (A? child, class IN) mapped to the
// packed response the repository's ANS gives for it, with ID 0. The fixture
// patches only the ID per query.
func fixtureTable(zd zoneData) (map[string][]byte, error) {
	z, err := zone.Parse(zd.text, dnswire.MustName("com"))
	if err != nil {
		return nil, fmt.Errorf("parsing generated zone: %w", err)
	}
	srv, err := ans.New(ans.Config{Env: realnet.New(), Zone: z})
	if err != nil {
		return nil, err
	}
	table := make(map[string][]byte, len(zd.children))
	for _, c := range zd.children {
		q, err := forwardedQuery(c)
		if err != nil {
			return nil, err
		}
		resp := srv.HandleQuery(q)
		if resp == nil {
			return nil, fmt.Errorf("ANS dropped the query for %s", c.label)
		}
		wire, err := resp.PackUDP(dnswire.MaxUDPSize)
		if err != nil {
			return nil, fmt.Errorf("packing the answer for %s: %w", c.label, err)
		}
		table[string(q[12:])] = wire
	}
	return table, nil
}

// forwardedQuery is the query the guard sends upstream for a verified
// query about child c: A? child, RD clear, ID 0.
func forwardedQuery(c child) ([]byte, error) {
	m := dnswire.NewQuery(0, dnswire.MustName(c.label+".com"), dnswire.TypeA)
	m.Flags.RD = false
	return m.PackUDP(dnswire.MaxUDPSize)
}
