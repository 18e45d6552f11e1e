package realnet

import (
	"errors"
	"net/netip"
	"sync"
	"testing"
	"time"

	"dnsguard/internal/ans"
	"dnsguard/internal/dnswire"
	"dnsguard/internal/netapi"
	"dnsguard/internal/zone"
)

const zoneText = `
$ORIGIN foo.test.
@ 3600 IN SOA ns1 admin 1 7200 600 360000 60
@ 3600 IN NS ns1
ns1 3600 IN A 127.0.0.1
www 300 IN A 198.51.100.10
`

func TestUDPLoopback(t *testing.T) {
	env := New()
	server, err := env.ListenUDP(netip.MustParseAddrPort("127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	client, err := env.ListenUDP(netip.MustParseAddrPort("127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		payload, src, err := server.ReadFrom(2 * time.Second)
		if err != nil {
			t.Errorf("server read: %v", err)
			return
		}
		_ = server.WriteTo(payload, src)
	}()
	if err := client.WriteTo([]byte("ping"), server.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	payload, _, err := client.ReadFrom(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if string(payload) != "ping" {
		t.Fatalf("payload = %q", payload)
	}
	wg.Wait()
}

func TestUDPReadTimeout(t *testing.T) {
	env := New()
	conn, err := env.ListenUDP(netip.MustParseAddrPort("127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_, _, err = conn.ReadFrom(20 * time.Millisecond)
	if !errors.Is(err, netapi.ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

func TestTCPLoopback(t *testing.T) {
	env := New()
	l, err := env.ListenTCP(netip.MustParseAddrPort("127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		conn, err := l.Accept(2 * time.Second)
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		defer conn.Close()
		buf := make([]byte, 16)
		n, err := conn.Read(buf, 2*time.Second)
		if err != nil {
			t.Errorf("read: %v", err)
			return
		}
		_, _ = conn.Write(buf[:n])
	}()
	conn, err := env.DialTCP(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	n, err := conn.Read(buf, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if string(buf[:n]) != "hello" {
		t.Fatalf("echo = %q", buf[:n])
	}
	wg.Wait()
}

// TestRealANSServesQueries runs the full authoritative server over real
// loopback sockets (UDP and TCP) — the deployment cmd/ansd uses.
func TestRealANSServesQueries(t *testing.T) {
	env := New()
	srv, err := ans.New(ans.Config{
		Env:       env,
		Addr:      netip.MustParseAddrPort("127.0.0.1:0"),
		Zone:      zone.MustParse(zoneText, dnswire.Root),
		EnableTCP: false, // ephemeral UDP port differs from any TCP port
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	client, err := env.ListenUDP(netip.MustParseAddrPort("127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	q, _ := dnswire.NewQuery(7, dnswire.MustName("www.foo.test"), dnswire.TypeA).PackUDP(512)
	if err := client.WriteTo(q, srv.Addr()); err != nil {
		t.Fatal(err)
	}
	payload, _, err := client.ReadFrom(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := dnswire.Unpack(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Answers) != 1 || resp.Answers[0].Data.(*dnswire.AData).Addr != netip.MustParseAddr("198.51.100.10") {
		t.Fatalf("resp = %v", resp)
	}
}

// TestBatchIOAllocs pins a warm loopback WriteBatch/ReadBatch round at zero
// allocations: the RawConn is cached per socket and the mmsg callbacks are
// bound once per pooled state, so the dataplane's batch calls add nothing
// per call.
func TestBatchIOAllocs(t *testing.T) {
	if !osBatchIO {
		t.Skip("no recvmmsg/sendmmsg batch path on this platform")
	}
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under -race; allocation counts are meaningless")
	}
	env := New()
	rx, err := env.ListenUDP(netip.MustParseAddrPort("127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()
	tx, err := env.ListenUDP(netip.MustParseAddrPort("127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Close()
	const batch = 4
	out := make([]netapi.Datagram, batch)
	for i := range out {
		out[i] = netapi.Datagram{Buf: []byte{byte(i), 'p', 'k', 't'}, N: 4, Addr: rx.LocalAddr()}
	}
	slab := netapi.NewSlab(batch, 512)
	w, r := tx.(netapi.BatchConn), rx.(netapi.BatchConn)
	round := func() {
		if n, err := w.WriteBatch(out); err != nil || n != batch {
			t.Fatalf("WriteBatch = %d, %v", n, err)
		}
		for got := 0; got < batch; {
			n, err := r.ReadBatch(slab[got:], 2*time.Second)
			if err != nil {
				t.Fatalf("ReadBatch: %v", err)
			}
			got += n
		}
	}
	round() // warm: pooled mmsg state, netpoller registration
	if n := testing.AllocsPerRun(100, round); n != 0 {
		t.Errorf("batch write+read round allocates %.1f/op, want 0", n)
	}
}

// TestSharedBatchConcurrent drives the two handles of one shared-fd socket
// from two goroutines at once, writing and then reading: each batch call
// owns its pooled mmsg state, so every tagged datagram crosses exactly once
// with its own payload and source.
func TestSharedBatchConcurrent(t *testing.T) {
	env := New()
	handles, err := env.listenShared(netip.MustParseAddrPort("127.0.0.1:0"), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer handles[0].Close()
	defer handles[1].Close()
	peer, err := env.ListenUDP(netip.MustParseAddrPort("127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	const per, batch = 64, 8 // 128 datagrams in flight: well under the receive buffer

	// tagged builds the batch of datagrams seq..seq+batch-1 from writer w.
	tagged := func(w, seq int, to netip.AddrPort) []netapi.Datagram {
		out := make([]netapi.Datagram, batch)
		for i := range out {
			out[i] = netapi.Datagram{Buf: []byte{byte(w), byte(seq + i)}, N: 2, Addr: to}
		}
		return out
	}
	// collect reads 2*per datagrams through the given handles concurrently
	// and fails unless each (writer, seq) tag arrived exactly once from want.
	collect := func(readers []netapi.UDPConn, want netip.AddrPort) {
		var mu sync.Mutex
		seen := make(map[[2]byte]int)
		total := 0
		var wg sync.WaitGroup
		deadline := time.Now().Add(5 * time.Second)
		for _, r := range readers {
			wg.Add(1)
			go func(bc netapi.BatchConn) {
				defer wg.Done()
				slab := netapi.NewSlab(batch, 64)
				for time.Now().Before(deadline) {
					mu.Lock()
					done := total == 2*per
					mu.Unlock()
					if done {
						return
					}
					n, err := bc.ReadBatch(slab, 50*time.Millisecond)
					if errors.Is(err, netapi.ErrTimeout) {
						continue
					}
					if err != nil {
						t.Errorf("ReadBatch: %v", err)
						return
					}
					mu.Lock()
					for _, d := range slab[:n] {
						if d.N != 2 || d.Addr != want {
							t.Errorf("datagram %x from %v, want 2 bytes from %v", d.Payload(), d.Addr, want)
							continue
						}
						seen[[2]byte{d.Buf[0], d.Buf[1]}]++
					}
					total += n
					mu.Unlock()
				}
			}(r.(netapi.BatchConn))
		}
		wg.Wait()
		if total != 2*per || len(seen) != 2*per {
			t.Fatalf("read %d datagrams, %d distinct, want %d", total, len(seen), 2*per)
		}
	}

	// Two writers on one fd.
	var wg sync.WaitGroup
	for w, h := range handles {
		wg.Add(1)
		go func(w int, bc netapi.BatchConn) {
			defer wg.Done()
			for seq := 0; seq < per; seq += batch {
				if n, err := bc.WriteBatch(tagged(w, seq, peer.LocalAddr())); err != nil || n != batch {
					t.Errorf("writer %d: WriteBatch = %d, %v", w, n, err)
					return
				}
			}
		}(w, h.(netapi.BatchConn))
	}
	wg.Wait()
	collect([]netapi.UDPConn{peer}, handles[0].LocalAddr())

	// Two readers on one fd.
	for w := 0; w < 2; w++ {
		for seq := 0; seq < per; seq += batch {
			if _, err := peer.(netapi.BatchConn).WriteBatch(tagged(w, seq, handles[0].LocalAddr())); err != nil {
				t.Fatal(err)
			}
		}
	}
	collect(handles, peer.LocalAddr())
}
