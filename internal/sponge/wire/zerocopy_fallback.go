//go:build !linux

package wire

import (
	"errors"
	"net"
	"os"
)

// zeroCopyAvailable reports whether this build can serve spill-file
// payloads via sendfile and pass descriptors over SCM_RIGHTS. Portable
// builds always use the buffered fallback and never answer OpPoolFD.
const zeroCopyAvailable = false

// errZCUnsupported mirrors the linux build's sentinel so shared code
// can reference it unconditionally.
var errZCUnsupported = errors.New("wire: zero-copy unsupported on this build")

// zeroCopier is never constructed on portable builds; every spill-file
// response takes the buffered fallback path in writeFrameFile.
type zeroCopier struct{}

func newZeroCopier(conn net.Conn) *zeroCopier { return nil }

func (z *zeroCopier) sendFile(f *os.File, off, n int64) (int64, error) {
	return 0, errZCUnsupported
}

// sendFilesOverUnix and recvFilesOverUnix need SCM_RIGHTS plumbing that
// this build does not compile in; servers answer OpPoolFD with
// StatusBadRequest and clients never attempt the handshake.
func sendFilesOverUnix(uc *net.UnixConn, id uint32, files []*os.File, g fdGeom) error {
	return errZCUnsupported
}

func recvFilesOverUnix(uc *net.UnixConn) ([]*os.File, fdGeom, error) {
	return nil, fdGeom{}, errZCUnsupported
}

// mapPoolMeta and unmapPoolMeta are never reached on this build: no
// descriptors arrive without recvFilesOverUnix succeeding.
func mapPoolMeta(meta *os.File, chunks int) ([]byte, []uint64, error) {
	return nil, nil, errZCUnsupported
}

func unmapPoolMeta(raw []byte) {}
