package main

import (
	"encoding/binary"
	"fmt"
	"syscall"
	"time"
	"unsafe"
)

// Raw UDP sockets for the load generator. Everything here is bench-owned
// and allocation-free per datagram: one sendmmsg or recvmmsg moves a whole
// batch, and the client socket picks each datagram's 127/8 source address
// with an IP_PKTINFO control message and learns each reply's destination
// the same way. The layout assumes a 64-bit Linux (amd64, arm64), where the
// kernel's struct mmsghdr has a 64-byte stride.

// mmsghdr mirrors the kernel's struct mmsghdr.
type mmsghdr struct {
	hdr syscall.Msghdr
	n   uint32
	_   [4]byte
}

const (
	dgramCap     = 512 // a guard reply or ANS answer never exceeds classic DNS size
	pktinfoSpace = 32  // CMSG_SPACE(sizeof(struct in_pktinfo)) on 64-bit Linux
	pktinfoLen   = 28  // CMSG_LEN(sizeof(struct in_pktinfo))
	batchSlots   = 256
)

// batch is the preallocated scratch of one direction of one socket.
type batch struct {
	hdrs    []mmsghdr
	iovs    []syscall.Iovec
	names   []syscall.RawSockaddrInet4
	ctrl    []byte
	bufs    []byte
	lens    []int
	n       int
	pktinfo bool
}

func newBatch(pktinfo bool) *batch {
	return &batch{
		hdrs:    make([]mmsghdr, batchSlots),
		iovs:    make([]syscall.Iovec, batchSlots),
		names:   make([]syscall.RawSockaddrInet4, batchSlots),
		ctrl:    make([]byte, batchSlots*pktinfoSpace),
		bufs:    make([]byte, batchSlots*dgramCap),
		lens:    make([]int, batchSlots),
		pktinfo: pktinfo,
	}
}

// next returns the buffer of the next outgoing datagram; commit queues it.
func (b *batch) next() []byte { return b.bufs[b.n*dgramCap : (b.n+1)*dgramCap] }

func (b *batch) full() bool { return b.n == batchSlots }

// commit queues the datagram written into next()'s buffer: n bytes to
// dst:port, from src when the socket picks sources per datagram.
func (b *batch) commit(n int, dst [4]byte, port uint16, src [4]byte) {
	i := b.n
	b.lens[i] = n
	sa := &b.names[i]
	sa.Family = syscall.AF_INET
	binary.BigEndian.PutUint16((*[2]byte)(unsafe.Pointer(&sa.Port))[:], port)
	sa.Addr = dst
	if b.pktinfo {
		c := b.ctrl[i*pktinfoSpace : (i+1)*pktinfoSpace]
		h := (*syscall.Cmsghdr)(unsafe.Pointer(&c[0]))
		h.Level = syscall.IPPROTO_IP
		h.Type = syscall.IP_PKTINFO
		h.SetLen(pktinfoLen)
		pi := (*syscall.Inet4Pktinfo)(unsafe.Pointer(&c[syscall.SizeofCmsghdr]))
		pi.Ifindex = 0
		pi.Spec_dst = src
		pi.Addr = [4]byte{}
	}
	b.n++
}

// flush sends every queued datagram.
func (b *batch) flush(fd int) error {
	sent := 0
	for sent < b.n {
		for i := sent; i < b.n; i++ {
			b.iovs[i].Base = &b.bufs[i*dgramCap]
			b.iovs[i].SetLen(b.lens[i])
			h := &b.hdrs[i].hdr
			h.Name = (*byte)(unsafe.Pointer(&b.names[i]))
			h.Namelen = syscall.SizeofSockaddrInet4
			h.Iov = &b.iovs[i]
			h.Iovlen = 1
			if b.pktinfo {
				h.Control = &b.ctrl[i*pktinfoSpace]
				h.SetControllen(pktinfoSpace)
			}
		}
		r, _, e := syscall.Syscall6(sysSendmmsg, uintptr(fd),
			uintptr(unsafe.Pointer(&b.hdrs[sent])), uintptr(b.n-sent), 0, 0, 0)
		if e == syscall.EINTR {
			continue
		}
		if e != 0 {
			return fmt.Errorf("sendmmsg: %w", e)
		}
		sent += int(r)
	}
	b.n = 0
	return nil
}

// recv reads up to batchSlots waiting datagrams without blocking.
func (b *batch) recv(fd int) (int, error) {
	for i := range b.hdrs {
		b.iovs[i].Base = &b.bufs[i*dgramCap]
		b.iovs[i].SetLen(dgramCap)
		h := &b.hdrs[i].hdr
		h.Name = (*byte)(unsafe.Pointer(&b.names[i]))
		h.Namelen = syscall.SizeofSockaddrInet4
		h.Iov = &b.iovs[i]
		h.Iovlen = 1
		if b.pktinfo {
			h.Control = &b.ctrl[i*pktinfoSpace]
			h.SetControllen(pktinfoSpace)
		}
	}
	for {
		r, _, e := syscall.Syscall6(sysRecvmmsg, uintptr(fd),
			uintptr(unsafe.Pointer(&b.hdrs[0])), batchSlots, syscall.MSG_DONTWAIT, 0, 0)
		switch e {
		case 0:
			b.n = int(r)
			return b.n, nil
		case syscall.EINTR:
			continue
		case syscall.EAGAIN:
			b.n = 0
			return 0, nil
		}
		return 0, fmt.Errorf("recvmmsg: %w", e)
	}
}

func (b *batch) payload(i int) []byte {
	return b.bufs[i*dgramCap : i*dgramCap+int(b.hdrs[i].n)]
}

// from is the i-th received datagram's source.
func (b *batch) from(i int) ([4]byte, uint16) {
	sa := &b.names[i]
	return sa.Addr, binary.BigEndian.Uint16((*[2]byte)(unsafe.Pointer(&sa.Port))[:])
}

// dst is the i-th received datagram's destination address, from its
// IP_PKTINFO control message; ok is false when the kernel attached none.
func (b *batch) dst(i int) ([4]byte, bool) {
	h := &b.hdrs[i].hdr
	if !b.pktinfo || h.Controllen < pktinfoLen {
		return [4]byte{}, false
	}
	c := b.ctrl[i*pktinfoSpace:]
	cm := (*syscall.Cmsghdr)(unsafe.Pointer(&c[0]))
	if cm.Level != syscall.IPPROTO_IP || cm.Type != syscall.IP_PKTINFO {
		return [4]byte{}, false
	}
	return (*syscall.Inet4Pktinfo)(unsafe.Pointer(&c[syscall.SizeofCmsghdr])).Addr, true
}

// udpSocket opens a blocking IPv4 UDP socket bound to addr:0 with wide
// kernel buffers, so the load generator never drops what the guard sends.
func udpSocket(addr [4]byte, pktinfo bool) (fd int, port uint16, err error) {
	fd, err = syscall.Socket(syscall.AF_INET, syscall.SOCK_DGRAM|syscall.SOCK_CLOEXEC, 0)
	if err != nil {
		return -1, 0, fmt.Errorf("socket: %w", err)
	}
	fail := func(op string, err error) (int, uint16, error) {
		syscall.Close(fd)
		return -1, 0, fmt.Errorf("%s: %w", op, err)
	}
	for _, opt := range []int{syscall.SO_RCVBUF, syscall.SO_SNDBUF} {
		if err := syscall.SetsockoptInt(fd, syscall.SOL_SOCKET, opt, 4<<20); err != nil {
			return fail("setsockopt", err)
		}
	}
	if pktinfo {
		if err := syscall.SetsockoptInt(fd, syscall.IPPROTO_IP, syscall.IP_PKTINFO, 1); err != nil {
			return fail("setsockopt IP_PKTINFO", err)
		}
	}
	if err := syscall.Bind(fd, &syscall.SockaddrInet4{Addr: addr}); err != nil {
		return fail("bind", err)
	}
	sa, err := syscall.Getsockname(fd)
	if err != nil {
		return fail("getsockname", err)
	}
	return fd, uint16(sa.(*syscall.SockaddrInet4).Port), nil
}

// tick is the load generator's period in measured phases: it sends, sleeps
// one tick, then takes everything that arrived. The generator runs at
// SCHED_IDLE, which weighs almost nothing against the guard, so a tick that
// ends while the guard still has work hardly cuts the burst short: the
// generator gets the CPU back once the guard idles.
const tick = time.Millisecond

type pollfd struct {
	fd      int32
	events  int16
	revents int16
}

// waitReadable blocks until one of fds is readable or timeout passes.
func waitReadable(fds []pollfd, timeoutNS int64) error {
	ts := syscall.NsecToTimespec(timeoutNS)
	for i := range fds {
		fds[i].events, fds[i].revents = 0x1, 0 // POLLIN
	}
	_, _, e := syscall.Syscall6(syscall.SYS_PPOLL, uintptr(unsafe.Pointer(&fds[0])),
		uintptr(len(fds)), uintptr(unsafe.Pointer(&ts)), 0, 0, 0)
	if e != 0 && e != syscall.EINTR {
		return fmt.Errorf("ppoll: %w", e)
	}
	return nil
}

func sleepTick() {
	ts := syscall.NsecToTimespec(int64(tick))
	syscall.Nanosleep(&ts, nil) // an early wake-up only shortens one tick
}

// cpuNow is this process's CPU time in ns: the sum of every thread's run
// time, the same clock /proc/<pid>/task/*/schedstat reports per thread.
func cpuNow() int64 {
	var ts syscall.Timespec
	syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, 2 /* CLOCK_PROCESS_CPUTIME_ID */, uintptr(unsafe.Pointer(&ts)), 0)
	return ts.Nano()
}
