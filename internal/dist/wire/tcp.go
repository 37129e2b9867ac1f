package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"time"

	"distspanner/internal/dist"
)

// WriteFrame encodes f and writes it length-prefixed (u32 little-endian
// payload length, then the payload).
func WriteFrame(w io.Writer, f *dist.Frame) error {
	p, err := EncodeFrame(f)
	if err != nil {
		return err
	}
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(p)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err = w.Write(p)
	return err
}

// ReadFrame reads one length-prefixed frame. A length prefix beyond
// MaxFrameBytes is rejected before any allocation.
func ReadFrame(r io.Reader) (*dist.Frame, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > MaxFrameBytes {
		return nil, fmt.Errorf("wire: frame length %d exceeds limit", n)
	}
	p := make([]byte, n)
	if _, err := io.ReadFull(r, p); err != nil {
		return nil, err
	}
	return DecodeFrame(p)
}

// conn is one framed stream. The protocol is strictly alternating per
// peer, so no locking is needed; Close unblocks a pending read.
type conn struct {
	c  net.Conn
	br *bufio.Reader
	bw *bufio.Writer
}

func newConn(c net.Conn) *conn {
	return &conn{c: c, br: bufio.NewReaderSize(c, 1<<16), bw: bufio.NewWriterSize(c, 1<<16)}
}

func (t *conn) send(f *dist.Frame) error {
	if err := WriteFrame(t.bw, f); err != nil {
		return fmt.Errorf("%w: %v", dist.ErrTransport, err)
	}
	if err := t.bw.Flush(); err != nil {
		return fmt.Errorf("%w: %v", dist.ErrTransport, err)
	}
	return nil
}

func (t *conn) recv() (*dist.Frame, error) {
	f, err := ReadFrame(t.br)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", dist.ErrTransport, err)
	}
	return f, nil
}

func (t *conn) close() error { return t.c.Close() }

// TCPWorker is a worker's framed connection to the coordinator.
type TCPWorker struct {
	*conn
}

var _ dist.WorkerTransport = (*TCPWorker)(nil)

func (w *TCPWorker) Send(f *dist.Frame) error      { return w.send(f) }
func (w *TCPWorker) Receive() (*dist.Frame, error) { return w.recv() }
func (w *TCPWorker) Close() error                  { return w.close() }

// Dial connects a worker to the coordinator at addr.
func Dial(addr string) (*TCPWorker, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("%w: dial %s: %v", dist.ErrTransport, addr, err)
	}
	return &TCPWorker{conn: newConn(c)}, nil
}

// DialRetry dials until the coordinator is listening, for workers
// started before (or racing) the coordinator.
func DialRetry(addr string, timeout time.Duration) (*TCPWorker, error) {
	deadline := time.Now().Add(timeout)
	for {
		w, err := Dial(addr)
		if err == nil {
			return w, nil
		}
		if time.Now().After(deadline) {
			return nil, err
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TCPCoord is the coordinator's side: one framed connection per worker,
// slot order = accept order = shard index order (the shard index is
// assigned by the SetupFrame the coordinator sends on each slot).
type TCPCoord struct {
	conns []*conn
}

var _ dist.CoordTransport = (*TCPCoord)(nil)

func (c *TCPCoord) Workers() int { return len(c.conns) }

func (c *TCPCoord) Send(worker int, f *dist.Frame) error { return c.conns[worker].send(f) }

func (c *TCPCoord) Receive(worker int) (*dist.Frame, error) { return c.conns[worker].recv() }

func (c *TCPCoord) Close() error {
	var first error
	for _, t := range c.conns {
		if err := t.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// AcceptWorkers accepts exactly `workers` connections on ln and returns
// the coordinator transport. The caller retains ownership of ln (close
// it after this returns). A non-zero timeout bounds the whole accept
// phase when ln supports deadlines (a *net.TCPListener does).
func AcceptWorkers(ln net.Listener, workers int, timeout time.Duration) (*TCPCoord, error) {
	if workers < 1 {
		return nil, fmt.Errorf("%w: need at least one worker", dist.ErrTransport)
	}
	if d, ok := ln.(interface{ SetDeadline(time.Time) error }); ok && timeout > 0 {
		if err := d.SetDeadline(time.Now().Add(timeout)); err != nil {
			return nil, fmt.Errorf("%w: %v", dist.ErrTransport, err)
		}
	}
	c := &TCPCoord{conns: make([]*conn, 0, workers)}
	for i := 0; i < workers; i++ {
		nc, err := ln.Accept()
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("%w: accept worker %d/%d: %v", dist.ErrTransport, i, workers, err)
		}
		c.conns = append(c.conns, newConn(nc))
	}
	return c, nil
}
