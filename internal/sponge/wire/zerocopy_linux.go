//go:build linux

package wire

import (
	"encoding/binary"
	"errors"
	"net"
	"os"
	"syscall"
	"unsafe"
)

// zeroCopyAvailable reports whether this build can serve spill-file
// payloads via sendfile and pass descriptors over SCM_RIGHTS.
const zeroCopyAvailable = true

// errZCUnsupported means the connection or kernel cannot take this
// transfer zero-copy; the caller falls back to the buffered path. It is
// only returned before any payload byte has moved.
var errZCUnsupported = errors.New("wire: zero-copy unsupported on this connection")

// zeroCopier drives sendfile(2) from a spill file into one connection's
// socket. It is created once per connection and bound to the raw
// descriptor, and its step closure is pre-bound so a steady-state
// zero-copy serve allocates nothing. Its one user is the connection's
// frameWriter.
type zeroCopier struct {
	rc   syscall.RawConn
	src  int   // spill-file fd for the in-flight transfer
	off  int64 // next file offset (sendfile advances it)
	left int64 // bytes still to send
	serr error // syscall error from the last step
	step func(fd uintptr) bool
}

// newZeroCopier returns a sendfile driver for conn, or nil when the
// connection is not a kernel socket we can sendfile into.
func newZeroCopier(conn net.Conn) *zeroCopier {
	type rawConner interface {
		SyscallConn() (syscall.RawConn, error)
	}
	var rc syscall.RawConn
	switch c := conn.(type) {
	case *net.TCPConn:
		rc, _ = c.SyscallConn()
	case *net.UnixConn:
		rc, _ = c.SyscallConn()
	default:
		// Wrapped conns (tests, middleware) may still expose the raw
		// socket.
		if sc, ok := conn.(rawConner); ok {
			rc, _ = sc.SyscallConn()
		}
	}
	if rc == nil {
		return nil
	}
	z := &zeroCopier{rc: rc}
	z.step = func(fd uintptr) bool {
		for z.left > 0 {
			n, err := syscall.Sendfile(int(fd), z.src, &z.off, int(z.left))
			if n > 0 {
				z.left -= int64(n)
				continue
			}
			switch err {
			case syscall.EINTR:
				continue
			case syscall.EAGAIN:
				return false // wait for writability, then re-enter
			default:
				if err == nil {
					// 0 bytes, no error: offset past EOF — a corrupt
					// record; surface it rather than spinning.
					err = syscall.ENODATA
				}
				z.serr = err
				return true
			}
		}
		return true
	}
	return z
}

// sendFile transfers n bytes of f starting at off into the socket,
// returning the bytes actually moved zero-copy. A kernel that refuses
// the very first sendfile (EINVAL/ENOSYS/ENOTSOCK) yields
// errZCUnsupported with 0 bytes moved, so the caller can fall back to a
// buffered copy without corrupting the stream.
func (z *zeroCopier) sendFile(f *os.File, off, n int64) (int64, error) {
	z.src = int(f.Fd())
	z.off = off
	z.left = n
	z.serr = nil
	err := z.rc.Write(z.step)
	sent := n - z.left
	if err == nil {
		err = z.serr
	}
	if err != nil && sent == 0 {
		switch err {
		case syscall.EINVAL, syscall.ENOSYS, syscall.ENOTSOCK, syscall.ENOTSUP:
			return 0, errZCUnsupported
		}
	}
	return sent, err
}

// fdReplyLen is the OpPoolFD response as it crosses the socket: the
// frame header, the status byte, and the 16-byte geometry.
const fdReplyLen = 8 + 1 + 16

// sendFilesOverUnix answers OpPoolFD request id on a unix connection:
// the whole response frame — StatusOK, then the geometry — rides one
// sendmsg with every file's descriptor as SCM_RIGHTS ancillary data.
// The caller guarantees nothing is buffered ahead of it, so the
// descriptors land exactly on the receiver's recvmsg boundary.
func sendFilesOverUnix(uc *net.UnixConn, id uint32, files []*os.File, g fdGeom) error {
	fds := make([]int, len(files))
	for i, f := range files {
		fds[i] = int(f.Fd())
	}
	var msg [fdReplyLen]byte
	binary.LittleEndian.PutUint32(msg[0:4], fdReplyLen-8)
	binary.LittleEndian.PutUint32(msg[4:8], id)
	msg[8] = StatusOK
	binary.LittleEndian.PutUint32(msg[9:13], uint32(g.segChunks))
	binary.LittleEndian.PutUint32(msg[13:17], uint32(g.chunks))
	binary.LittleEndian.PutUint32(msg[17:21], uint32(g.chunkSize))
	binary.LittleEndian.PutUint32(msg[21:25], uint32(g.flags))
	_, _, err := uc.WriteMsgUnix(msg[:], syscall.UnixRights(fds...), nil)
	return err
}

// recvFilesOverUnix performs the client half of the OpPoolFD handshake,
// request ID 0, on a dedicated raw unix connection (no buffered reader
// may sit between: a buffered read would consume the descriptor-carrying
// bytes and the kernel would drop the ancillary data). On success the
// returned files, in the order sent, are owned by the caller.
func recvFilesOverUnix(uc *net.UnixConn) (files []*os.File, g fdGeom, err error) {
	req := [9]byte{1, 0, 0, 0, 0, 0, 0, 0, OpPoolFD} // length 1, request ID 0, the op
	if _, err := uc.Write(req[:]); err != nil {
		return nil, g, err
	}
	var msg [fdReplyLen]byte
	oob := make([]byte, syscall.CmsgSpace(4*scmMaxFD))
	n, oobn, _, _, err := uc.ReadMsgUnix(msg[:], oob)
	if err != nil {
		return nil, g, err
	}
	// Collect whatever descriptors arrived first, so every exit below
	// owns (and on error closes) them.
	if cmsgs, err := syscall.ParseSocketControlMessage(oob[:oobn]); err == nil {
		for _, cmsg := range cmsgs {
			fds, _ := syscall.ParseUnixRights(&cmsg)
			for _, fd := range fds {
				syscall.CloseOnExec(fd)
				files = append(files, os.NewFile(uintptr(fd), "sponge-passed-fd"))
			}
		}
	}
	err = errors.New("wire: malformed pool-fd response")
	if n >= 9 && msg[8] != StatusOK {
		err = statusErr(msg[8])
	} else if n == fdReplyLen && binary.LittleEndian.Uint32(msg[0:4]) == fdReplyLen-8 &&
		binary.LittleEndian.Uint32(msg[4:8]) == 0 && len(files) > 0 {
		return files, fdGeom{
			segChunks: int(binary.LittleEndian.Uint32(msg[9:13])),
			chunks:    int(binary.LittleEndian.Uint32(msg[13:17])),
			chunkSize: int(binary.LittleEndian.Uint32(msg[17:21])),
			flags:     int(binary.LittleEndian.Uint32(msg[21:25])),
		}, nil
	}
	for _, f := range files {
		f.Close()
	}
	return nil, g, err
}

// mapPoolMeta maps a passed generation-table descriptor read-only and
// views it as the per-chunk []uint64 the pread fast path checks after
// each read. The raw mapping is returned for unmapPoolMeta.
func mapPoolMeta(meta *os.File, chunks int) (raw []byte, gens []uint64, err error) {
	if chunks == 0 {
		return nil, nil, nil
	}
	raw, err = syscall.Mmap(int(meta.Fd()), 0, chunks*8, syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, nil, err
	}
	return raw, unsafe.Slice((*uint64)(unsafe.Pointer(&raw[0])), chunks), nil
}

// unmapPoolMeta releases a mapPoolMeta mapping.
func unmapPoolMeta(raw []byte) {
	if raw != nil {
		syscall.Munmap(raw)
	}
}
