// Package realnet implements netapi.Env over the operating system's network
// stack (the net and time packages). The same servers, resolvers, and guards
// that run inside internal/netsim for experiments run here for real: the
// cmd/ daemons and the realservers example use this environment.
//
// Limitations relative to the simulator are inherent to userspace sockets
// and documented in DESIGN.md: source addresses cannot be spoofed, the guard
// intercepts by being addressed directly rather than by claiming a subnet,
// and SYN cookies are the kernel's business.
package realnet

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"os"
	"sync"
	"syscall"
	"time"

	"dnsguard/internal/netapi"
)

// Env is the real-network environment. The zero value is not usable; call
// New.
type Env struct {
	start time.Time
}

var _ netapi.Env = (*Env)(nil)

// New returns an Env whose clock starts now.
func New() *Env {
	return &Env{start: time.Now()}
}

// Now implements netapi.Env.
func (e *Env) Now() time.Duration { return time.Since(e.start) }

// Sleep implements netapi.Env.
func (e *Env) Sleep(d time.Duration) { time.Sleep(d) }

// Go implements netapi.Env.
func (e *Env) Go(name string, fn func()) { go fn() }

// ListenUDP implements netapi.Env.
func (e *Env) ListenUDP(addr netip.AddrPort) (netapi.UDPConn, error) {
	var la *net.UDPAddr
	if addr.IsValid() && (addr.Addr().IsValid() || addr.Port() != 0) {
		la = net.UDPAddrFromAddrPort(addr)
	}
	conn, err := net.ListenUDP("udp", la)
	if err != nil {
		return nil, fmt.Errorf("realnet: %w", err)
	}
	return newUDPConn(conn), nil
}

// DialTCP implements netapi.Env.
func (e *Env) DialTCP(raddr netip.AddrPort) (netapi.Conn, error) {
	c, err := net.DialTimeout("tcp", raddr.String(), 10*time.Second)
	if err != nil {
		return nil, mapErr(err)
	}
	return &tcpConn{conn: c.(*net.TCPConn)}, nil
}

// ListenTCP implements netapi.Env.
func (e *Env) ListenTCP(addr netip.AddrPort) (netapi.Listener, error) {
	l, err := net.ListenTCP("tcp", net.TCPAddrFromAddrPort(addr))
	if err != nil {
		return nil, mapErr(err)
	}
	return &tcpListener{l: l}, nil
}

type udpConn struct {
	conn *net.UDPConn
	// raw is conn's syscall.RawConn, fetched once: SyscallConn allocates a
	// fresh wrapper per call, which the batch path would pay per read.
	raw syscall.RawConn
}

// newUDPConn wraps a freshly bound socket. SyscallConn fails only on a nil
// or fd-less conn, which a successful bind never returns.
func newUDPConn(conn *net.UDPConn) *udpConn {
	raw, _ := conn.SyscallConn()
	return &udpConn{conn: conn, raw: raw}
}

var (
	_ netapi.UDPConn        = (*udpConn)(nil)
	_ netapi.FlowStableConn = (*udpConn)(nil)
)

// FlowStable reports true: a singly-bound kernel socket receives every
// datagram of every flow addressed to it, and in an SO_REUSEPORT group
// (reuseport_linux.go) the kernel's 4-tuple hash pins each flow to one
// member socket for the socket's lifetime. The non-flow-stable realnet case
// is the shared-fd fallback, whose handles override this (sharedHandle).
func (c *udpConn) FlowStable() bool { return true }

// SetReadBuffer sets the socket's kernel receive buffer (SO_RCVBUF).
// Optional capability probed by interface assertion; load generators raise
// it so burst absorption is bounded by the harness, not the distro default.
func (c *udpConn) SetReadBuffer(bytes int) error {
	return mapErr(c.conn.SetReadBuffer(bytes))
}

// readBufPool recycles the max-datagram scratch buffers ReadFrom reads into.
// The caller-owned return slice is still an exact-size copy (the netapi
// contract), but the 64 KiB scratch — previously a fresh allocation per
// datagram — is reused across reads and across sockets.
var readBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 65536)
		return &b
	},
}

// pollGrace is the effective deadline of a zero-timeout (poll) read. A
// deadline of exactly now races the runtime's deadline timer against the
// poller's first non-blocking read attempt — the timer usually wins, the
// recv syscall is never issued, and buffered datagrams are unreachable
// through a poll (a divergence from netsim's queues that the netapi
// conformance suite pins). A hair of grace guarantees one genuine
// non-blocking attempt; an empty socket still turns the poll around within
// ~pollGrace.
const pollGrace = 200 * time.Microsecond

// setReadDeadline applies netapi timeout rules to the socket: negative
// blocks (no deadline), zero polls (pollGrace), positive bounds the wait.
func (c *udpConn) setReadDeadline(timeout time.Duration) error {
	var dl time.Time
	switch {
	case timeout == 0:
		dl = time.Now().Add(pollGrace)
	case timeout > 0:
		dl = time.Now().Add(timeout)
	}
	return mapErr(c.conn.SetReadDeadline(dl))
}

func (c *udpConn) ReadFrom(timeout time.Duration) ([]byte, netip.AddrPort, error) {
	if err := c.setReadDeadline(timeout); err != nil {
		return nil, netip.AddrPort{}, err
	}
	bufp := readBufPool.Get().(*[]byte)
	n, src, err := c.conn.ReadFromUDPAddrPort(*bufp)
	if err != nil {
		readBufPool.Put(bufp)
		return nil, netip.AddrPort{}, mapErr(err)
	}
	out := make([]byte, n)
	copy(out, (*bufp)[:n])
	readBufPool.Put(bufp)
	return out, unmap(src), nil
}

func (c *udpConn) WriteTo(b []byte, to netip.AddrPort) error {
	_, err := c.conn.WriteToUDPAddrPort(b, to)
	return mapErr(err)
}

func (c *udpConn) LocalAddr() netip.AddrPort {
	return unmap(c.conn.LocalAddr().(*net.UDPAddr).AddrPort())
}

func (c *udpConn) Close() error { return c.conn.Close() }

type tcpConn struct {
	conn *net.TCPConn
}

var _ netapi.Conn = (*tcpConn)(nil)

func (c *tcpConn) Read(b []byte, timeout time.Duration) (int, error) {
	if timeout >= 0 {
		if err := c.conn.SetReadDeadline(time.Now().Add(timeout)); err != nil {
			return 0, mapErr(err)
		}
	} else if err := c.conn.SetReadDeadline(time.Time{}); err != nil {
		return 0, mapErr(err)
	}
	n, err := c.conn.Read(b)
	return n, mapErr(err)
}

func (c *tcpConn) Write(b []byte) (int, error) {
	n, err := c.conn.Write(b)
	return n, mapErr(err)
}

func (c *tcpConn) Close() error { return c.conn.Close() }

func (c *tcpConn) LocalAddr() netip.AddrPort {
	return unmap(c.conn.LocalAddr().(*net.TCPAddr).AddrPort())
}

func (c *tcpConn) RemoteAddr() netip.AddrPort {
	return unmap(c.conn.RemoteAddr().(*net.TCPAddr).AddrPort())
}

type tcpListener struct {
	l *net.TCPListener
}

var _ netapi.Listener = (*tcpListener)(nil)

func (l *tcpListener) Accept(timeout time.Duration) (netapi.Conn, error) {
	if timeout >= 0 {
		if err := l.l.SetDeadline(time.Now().Add(timeout)); err != nil {
			return nil, mapErr(err)
		}
	} else if err := l.l.SetDeadline(time.Time{}); err != nil {
		return nil, mapErr(err)
	}
	c, err := l.l.AcceptTCP()
	if err != nil {
		return nil, mapErr(err)
	}
	return &tcpConn{conn: c}, nil
}

func (l *tcpListener) Addr() netip.AddrPort {
	return unmap(l.l.Addr().(*net.TCPAddr).AddrPort())
}

func (l *tcpListener) Close() error { return l.l.Close() }

// unmap normalizes 4-in-6 addresses so netip comparisons work.
func unmap(ap netip.AddrPort) netip.AddrPort {
	return netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
}

func mapErr(err error) error {
	switch {
	case err == nil:
		return nil
	case os.IsTimeout(err):
		return netapi.ErrTimeout
	case errors.Is(err, net.ErrClosed):
		return netapi.ErrClosed
	default:
		var opErr *net.OpError
		if errors.As(err, &opErr) && opErr.Op == "dial" {
			return fmt.Errorf("%w: %v", netapi.ErrRefused, err)
		}
		return err
	}
}
