//go:build linux && (amd64 || arm64)

// Linux mmsg fast path: one recvmmsg/sendmmsg kernel crossing moves a whole
// slab of datagrams. Raw syscall.Syscall6 against the stdlib syscall
// numbers, driven through RawConn.Read/Write so the calls integrate with the
// runtime netpoller and honor deadlines. Gated to amd64/arm64, where
// syscall.Msghdr's layout (8-byte pointers, uint64 iovlen) matches the
// kernel's struct mmsghdr stride of 64 bytes with one trailing uint32.

package realnet

import (
	"fmt"
	"net"
	"net/netip"
	"os"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"dnsguard/internal/netapi"
)

const osBatchIO = true

// mmsghdr mirrors the kernel's struct mmsghdr: a msghdr plus the per-message
// byte count the kernel writes back. The explicit pad fixes the 64-byte
// array stride the kernel walks.
type mmsghdr struct {
	hdr syscall.Msghdr
	n   uint32
	_   [4]byte
}

// mmsgState is the per-call scratch recvmmsg/sendmmsg point the kernel at:
// header array, sockaddr array, one iovec per message, and the call's
// progress. Pooled because every batch call needs the full set and they are
// invariant in shape; one call owns a state from getMMsg to the pool Put, so
// concurrent callers on one shared-fd socket never share one.
//
// recv and send are the RawConn.Read/Write callbacks, bound once as method
// values when the state is created: a closure over per-call locals would
// escape on every call.
type mmsgState struct {
	hdrs  []mmsghdr
	names []syscall.RawSockaddrAny
	iovs  []syscall.Iovec

	poll bool  // recvmmsg: EAGAIN ends the call instead of parking
	done int   // datagrams received, or sent so far
	err  error // syscall failure other than EAGAIN/EINTR

	recv, send func(fd uintptr) bool
}

var mmsgPool sync.Pool

func getMMsg(n int) *mmsgState {
	st, _ := mmsgPool.Get().(*mmsgState)
	if st == nil {
		st = &mmsgState{}
		st.recv, st.send = st.recvmmsg, st.sendmmsg
	}
	if cap(st.hdrs) < n {
		st.hdrs = make([]mmsghdr, n)
		st.names = make([]syscall.RawSockaddrAny, n)
		st.iovs = make([]syscall.Iovec, n)
	}
	st.hdrs, st.names, st.iovs = st.hdrs[:n], st.names[:n], st.iovs[:n]
	st.poll, st.done, st.err = false, 0, nil
	return st
}

// recvmmsg is the RawConn.Read callback: one non-blocking recvmmsg over the
// whole header array. MSG_DONTWAIT keeps the syscall non-blocking regardless
// of socket mode; blocking semantics come from the netpoller (returning
// false parks on EAGAIN until readable or deadline). A poll never parks: the
// first EAGAIN is the answer.
func (st *mmsgState) recvmmsg(fd uintptr) bool {
	for {
		r1, _, errno := syscall.Syscall6(syscall.SYS_RECVMMSG, fd,
			uintptr(unsafe.Pointer(&st.hdrs[0])), uintptr(len(st.hdrs)),
			syscall.MSG_DONTWAIT, 0, 0)
		switch errno {
		case 0:
			st.done = int(r1)
			return true
		case syscall.EINTR:
			continue
		case syscall.EAGAIN:
			if st.poll {
				st.err = netapi.ErrTimeout
				return true
			}
			return false
		default:
			st.err = os.NewSyscallError("recvmmsg", errno)
			return true
		}
	}
}

// sendmmsg is the RawConn.Write callback: sendmmsg until every header is
// sent, parking on a full socket buffer.
func (st *mmsgState) sendmmsg(fd uintptr) bool {
	for st.done < len(st.hdrs) {
		r1, _, errno := syscall.Syscall6(sysSENDMMSG, fd,
			uintptr(unsafe.Pointer(&st.hdrs[st.done])), uintptr(len(st.hdrs)-st.done),
			syscall.MSG_DONTWAIT, 0, 0)
		switch errno {
		case 0:
			if r1 == 0 {
				return false
			}
			st.done += int(r1)
		case syscall.EINTR:
		case syscall.EAGAIN:
			return false
		default:
			st.err = os.NewSyscallError("sendmmsg", errno)
			return true
		}
	}
	return true
}

func (c *udpConn) readBatchOS(msgs []netapi.Datagram, timeout time.Duration) (int, error) {
	if err := c.setReadDeadline(timeout); err != nil {
		return 0, err
	}
	st := getMMsg(len(msgs))
	defer mmsgPool.Put(st)
	for i := range msgs {
		d := &msgs[i]
		if cap(d.Buf) == 0 {
			d.Buf = make([]byte, maxDatagram)
		}
		buf := d.Buf[:cap(d.Buf)]
		st.iovs[i] = syscall.Iovec{Base: &buf[0], Len: uint64(len(buf))}
		st.names[i] = syscall.RawSockaddrAny{}
		st.hdrs[i] = mmsghdr{hdr: syscall.Msghdr{
			Name:    (*byte)(unsafe.Pointer(&st.names[i])),
			Namelen: syscall.SizeofSockaddrAny,
			Iov:     &st.iovs[i],
			Iovlen:  1,
		}}
	}
	st.poll = timeout == 0
	if err := c.raw.Read(st.recv); err != nil {
		return 0, mapErr(err)
	}
	if st.err != nil {
		return 0, st.err
	}
	for i := 0; i < st.done; i++ {
		d := &msgs[i]
		n := int(st.hdrs[i].n)
		d.Buf = d.Buf[:cap(d.Buf)][:n]
		d.N = n
		d.Addr = anyToAddrPort(&st.names[i])
	}
	return st.done, nil
}

func (c *udpConn) writeBatchOS(msgs []netapi.Datagram) (int, error) {
	// A socket bound over IPv6 (incl. the dual-stack wildcard) takes
	// 4-in-6 mapped sockaddrs for IPv4 destinations, exactly as the net
	// package arranges internally.
	la := c.conn.LocalAddr().(*net.UDPAddr)
	is6 := la.IP.To4() == nil
	st := getMMsg(len(msgs))
	defer mmsgPool.Put(st)
	for i := range msgs {
		d := &msgs[i]
		nameLen, err := putSockaddr(&st.names[i], d.Addr, is6)
		if err != nil {
			return 0, err
		}
		var base *byte
		if d.N > 0 {
			base = &d.Buf[0]
		}
		st.iovs[i] = syscall.Iovec{Base: base, Len: uint64(d.N)}
		st.hdrs[i] = mmsghdr{hdr: syscall.Msghdr{
			Name:    (*byte)(unsafe.Pointer(&st.names[i])),
			Namelen: nameLen,
			Iov:     &st.iovs[i],
			Iovlen:  1,
		}}
	}
	if err := c.raw.Write(st.send); err != nil {
		return st.done, mapErr(err)
	}
	return st.done, st.err
}

// putSockaddr renders dst into sa in the family the socket speaks and
// returns the sockaddr length.
func putSockaddr(sa *syscall.RawSockaddrAny, dst netip.AddrPort, is6 bool) (uint32, error) {
	addr := dst.Addr()
	if !addr.IsValid() {
		return 0, fmt.Errorf("realnet: invalid destination %v", dst)
	}
	if is6 {
		sa6 := (*syscall.RawSockaddrInet6)(unsafe.Pointer(sa))
		*sa6 = syscall.RawSockaddrInet6{Family: syscall.AF_INET6, Addr: addr.As16()}
		p := (*[2]byte)(unsafe.Pointer(&sa6.Port))
		p[0], p[1] = byte(dst.Port()>>8), byte(dst.Port())
		return syscall.SizeofSockaddrInet6, nil
	}
	if !addr.Unmap().Is4() {
		return 0, fmt.Errorf("realnet: IPv6 destination %v on IPv4 socket", dst)
	}
	sa4 := (*syscall.RawSockaddrInet4)(unsafe.Pointer(sa))
	*sa4 = syscall.RawSockaddrInet4{Family: syscall.AF_INET, Addr: addr.Unmap().As4()}
	p := (*[2]byte)(unsafe.Pointer(&sa4.Port))
	p[0], p[1] = byte(dst.Port()>>8), byte(dst.Port())
	return syscall.SizeofSockaddrInet4, nil
}

// anyToAddrPort decodes the kernel-filled source sockaddr; 4-in-6 sources
// are unmapped like every other realnet address.
func anyToAddrPort(sa *syscall.RawSockaddrAny) netip.AddrPort {
	switch sa.Addr.Family {
	case syscall.AF_INET:
		sa4 := (*syscall.RawSockaddrInet4)(unsafe.Pointer(sa))
		p := (*[2]byte)(unsafe.Pointer(&sa4.Port))
		return netip.AddrPortFrom(netip.AddrFrom4(sa4.Addr), uint16(p[0])<<8|uint16(p[1]))
	case syscall.AF_INET6:
		sa6 := (*syscall.RawSockaddrInet6)(unsafe.Pointer(sa))
		p := (*[2]byte)(unsafe.Pointer(&sa6.Port))
		return netip.AddrPortFrom(netip.AddrFrom16(sa6.Addr).Unmap(), uint16(p[0])<<8|uint16(p[1]))
	}
	return netip.AddrPort{}
}
