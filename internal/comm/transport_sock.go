package comm

// sockTransport moves every message over a loopback socket — TCP or
// unix-domain — while keeping the Topology's link queues as the receive
// side, so receivers, the watchdog, and cancellation behave exactly as they
// do in-process. One connection serves each ordered rank pair (a "link"),
// dialed lazily on the link's first send:
//
//	sender rank r ── frame ──▶ listener ──▶ demux goroutine ──▶ t.enqueue
//
// Wire protocol (little endian). A connection opens with a hello
// identifying its link, and the accept side answers with the link's last
// delivered sequence number so a reconnecting sender knows exactly what was
// lost:
//
//	hello:  magic u32 | from u32 | to u32
//	ack:    delivered i64
//	frame:  seq i64 | tag i64 | elems u32 | payload elems×f64
//
// Every frame carries the link's send sequence number. The demux side
// delivers a frame only when seq == delivered+1 under the link's receive
// lock, so a retransmitted frame after a reconnect is dropped as a
// duplicate and an out-of-order frame from a superseded connection can
// never overtake — exactly-once, in-order delivery survives drops.
//
// Failure handling per frame: a write (or dial) gets cfg.Timeout, then the
// connection is torn down and the attempt repeats under bounded
// exponential backoff (cfg.RetryBase doubling to cfg.RetryMax, at most
// cfg.MaxAttempts). On reconnect the hello-ack tells the sender how far
// delivery got; the most recent frame is retained and retransmitted when
// the ack shows it lost. A gap older than that single retained frame means
// the kernel accepted data that never reached the demux loop — impossible
// on a healthy loopback, reported as an unrecoverable link error.

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

type sockTransport struct {
	t   *topology
	cfg TransportConfig

	network string
	addr    string
	ln      net.Listener
	unixOwn string // unix socket file to remove on Close ("" for tcp)

	links []*sockLink // sender-side state, indexed from*p+to
	rcv   []recvGate  // receiver-side sequence gates, same indexing

	mu     sync.Mutex
	conns  map[net.Conn]struct{} // every open conn, for Cancel/Close
	closed atomic.Bool
	wg     sync.WaitGroup

	dials   atomic.Int64 // connections established (reconnects included)
	retries atomic.Int64 // frame attempts that had to back off

	// sent counts frames handed to the socket layer; delivered counts
	// frames enqueued on a link (dedup-filtered). The difference is the
	// in-flight population the deadlock watchdog must not mistake for
	// starvation (see Topology.checkDeadlock).
	sent      atomic.Int64
	delivered atomic.Int64
}

// InFlight reports frames written but not yet enqueued on a link queue. The
// demux loop enqueues a frame before it counts it delivered, so that the
// deadlock watchdog over- rather than under-counts what is still on its
// way: the reading can therefore trail the queues by a frame per
// connection — a receiver may already have consumed a message InFlight
// still counts — and reaches zero a moment after the last delivery, not
// necessarily before the Run that received it returns.
func (s *sockTransport) InFlight() int64 { return s.sent.Load() - s.delivered.Load() }

// sockLink is one ordered pair's sender state, touched only by the sending
// rank's goroutine (mu serializes against Cancel/Close tearing the conn).
type sockLink struct {
	mu   sync.Mutex
	conn net.Conn
	seq  int64  // sequence number of the most recent frame
	wbuf []byte // frame encode scratch, reused across sends
	// last is the encoding of the most recently written frame, retained so
	// a reconnect can retransmit it when the hello-ack shows it was lost.
	last []byte
}

// recvGate orders delivery for one link across connection generations.
type recvGate struct {
	mu        sync.Mutex
	delivered int64 // last sequence number enqueued
}

func newSockTransport(t *topology, cfg TransportConfig) (*sockTransport, error) {
	s := &sockTransport{
		t: t, cfg: cfg,
		links: make([]*sockLink, t.p*t.p),
		rcv:   make([]recvGate, t.p*t.p),
		conns: map[net.Conn]struct{}{},
	}
	for i := range s.links {
		s.links[i] = &sockLink{}
	}
	switch cfg.Kind {
	case TransportTCP:
		s.network = "tcp"
		s.addr = cfg.Addr
		if s.addr == "" {
			s.addr = "127.0.0.1:0"
		}
	case TransportUnix:
		s.network = "unix"
		s.addr = cfg.Addr
		if s.addr == "" {
			f, err := os.CreateTemp("", "wavefront-*.sock")
			if err != nil {
				return nil, fmt.Errorf("comm: transport: %w", err)
			}
			s.addr = f.Name()
			f.Close()
			os.Remove(s.addr)
		}
		s.unixOwn = s.addr
	}
	ln, err := net.Listen(s.network, s.addr)
	if err != nil {
		return nil, fmt.Errorf("comm: transport: listen %s %s: %w", s.network, s.addr, err)
	}
	s.ln = ln
	s.addr = ln.Addr().String()
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the transport's bound listen address.
func (s *sockTransport) Addr() string { return s.addr }

// Recv drains the receiver's link queue — delivery semantics are identical
// to the in-process transport once the demux loop has enqueued the frame.
func (s *sockTransport) Recv(from, to, tag int) (Message, time.Duration, error) {
	return s.t.dequeue(from, to, tag)
}

// Send frames m and writes it on the link's connection under the per-frame
// deadline, retrying with bounded exponential backoff and reconnecting on
// a broken connection. With a buffer pool attached the payload is returned
// to the sender's shard after encoding: ownership transferred at Send, and
// the receive side leases a fresh buffer when the frame arrives.
func (s *sockTransport) Send(from, to int, m Message) (time.Duration, error) {
	lk := s.links[from*s.t.p+to]
	lk.mu.Lock()
	defer lk.mu.Unlock()
	lk.seq++
	frame := appendFrame(lk.wbuf[:0], lk.seq, m)
	lk.wbuf = frame[:0]
	err := s.writeFrame(lk, from, to, frame)
	if err != nil {
		return 0, err
	}
	if p := s.t.pool; p != nil {
		p.Put(from, m.Data)
	}
	return 0, nil
}

func appendFrame(b []byte, seq int64, m Message) []byte {
	b = binary.LittleEndian.AppendUint64(b, uint64(seq))
	b = binary.LittleEndian.AppendUint64(b, uint64(int64(m.Tag)))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(m.Data)))
	for _, v := range m.Data {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

func (s *sockTransport) writeFrame(lk *sockLink, from, to int, frame []byte) (err error) {
	// Declared in flight before the first write and rebalanced on failure:
	// between those points the frame may be anywhere between the sender's
	// kernel buffer and the demux loop, and the deadlock watchdog must
	// treat it as deliverable.
	s.sent.Add(1)
	defer func() {
		if err != nil {
			s.sent.Add(-1)
		}
	}()
	backoff := s.cfg.RetryBase
	var lastErr error
	for attempt := 0; attempt < s.cfg.MaxAttempts; attempt++ {
		if s.t.canceled.Load() {
			return s.t.cancelError()
		}
		if s.closed.Load() {
			return fmt.Errorf("comm: transport closed while sending on link %d→%d", from, to)
		}
		if attempt > 0 {
			s.retries.Add(1)
			time.Sleep(backoff)
			backoff *= 2
			if backoff > s.cfg.RetryMax {
				backoff = s.cfg.RetryMax
			}
		}
		conn, err := s.connLocked(lk, from, to)
		if err != nil {
			lastErr = err
			continue
		}
		conn.SetWriteDeadline(time.Now().Add(s.cfg.Timeout))
		if _, err := conn.Write(frame); err != nil {
			lastErr = err
			s.dropConn(lk) // broken or timed out: redial on the next attempt
			continue
		}
		lk.last = append(lk.last[:0], frame...)
		return nil
	}
	return fmt.Errorf("comm: transport: link %d→%d: frame %d failed after %d attempts: %w",
		from, to, lk.seq, s.cfg.MaxAttempts, lastErr)
}

// connLocked returns the link's connection, dialing and handshaking when
// absent. On a reconnect the hello-ack reveals how far delivery got: the
// retained previous frame is retransmitted when lost, and an older gap is
// unrecoverable.
func (s *sockTransport) connLocked(lk *sockLink, from, to int) (net.Conn, error) {
	if lk.conn != nil {
		return lk.conn, nil
	}
	d := net.Dialer{Timeout: s.cfg.Timeout}
	conn, err := d.Dial(s.network, s.addr)
	if err != nil {
		return nil, err
	}
	if !s.track(conn) {
		conn.Close()
		return nil, fmt.Errorf("comm: transport closed while dialing link %d→%d", from, to)
	}
	s.dials.Add(1)
	conn.SetDeadline(time.Now().Add(s.cfg.Timeout))
	var hello [12]byte
	binary.LittleEndian.PutUint32(hello[0:], transportFrameMagic)
	binary.LittleEndian.PutUint32(hello[4:], uint32(from))
	binary.LittleEndian.PutUint32(hello[8:], uint32(to))
	if _, err := conn.Write(hello[:]); err != nil {
		s.untrack(conn)
		conn.Close()
		return nil, err
	}
	var ack [8]byte
	if _, err := io.ReadFull(conn, ack[:]); err != nil {
		s.untrack(conn)
		conn.Close()
		return nil, err
	}
	conn.SetDeadline(time.Time{})
	delivered := int64(binary.LittleEndian.Uint64(ack[:]))
	// The frame about to be written is lk.seq, so delivery is whole when
	// everything up to lk.seq-1 arrived. One missing frame is retransmitted
	// from the retained copy; more than one cannot happen on a loopback
	// socket that acknowledged the writes, so it is reported, not papered
	// over.
	if pending := lk.seq - 1 - delivered; pending > 0 {
		if pending > 1 || len(lk.last) == 0 {
			s.untrack(conn)
			conn.Close()
			return nil, fmt.Errorf("comm: transport: link %d→%d lost frames %d..%d across a reconnect",
				from, to, delivered+1, lk.seq-1)
		}
		conn.SetWriteDeadline(time.Now().Add(s.cfg.Timeout))
		if _, err := conn.Write(lk.last); err != nil {
			s.untrack(conn)
			conn.Close()
			return nil, err
		}
	}
	lk.conn = conn
	return conn, nil
}

func (s *sockTransport) dropConn(lk *sockLink) {
	if lk.conn != nil {
		s.untrack(lk.conn)
		lk.conn.Close()
		lk.conn = nil
	}
}

// track registers a conn for Cancel/Close teardown; false when the
// transport is already closed.
func (s *sockTransport) track(c net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return false
	}
	s.conns[c] = struct{}{}
	return true
}

func (s *sockTransport) untrack(c net.Conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

func (s *sockTransport) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		if !s.track(conn) {
			conn.Close()
			return
		}
		s.wg.Add(1)
		go s.demux(conn)
	}
}

// demux owns one accepted connection: it validates the hello, acks the
// link's delivered sequence number, then reads frames and enqueues each on
// the Topology's link queue under the receive gate. It exits when the
// connection breaks (sender redial replaces it) or the transport closes.
func (s *sockTransport) demux(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.untrack(conn)
		conn.Close()
	}()
	var hello [12]byte
	conn.SetReadDeadline(time.Now().Add(s.cfg.Timeout))
	if _, err := io.ReadFull(conn, hello[:]); err != nil {
		return
	}
	if binary.LittleEndian.Uint32(hello[0:]) != transportFrameMagic {
		return
	}
	from := int(int32(binary.LittleEndian.Uint32(hello[4:])))
	to := int(int32(binary.LittleEndian.Uint32(hello[8:])))
	p := s.t.p
	if from < 0 || from >= p || to < 0 || to >= p || from == to {
		return
	}
	idx := from*p + to
	g := &s.rcv[idx]
	g.mu.Lock()
	var ack [8]byte
	binary.LittleEndian.PutUint64(ack[:], uint64(g.delivered))
	_, err := conn.Write(ack[:])
	g.mu.Unlock()
	if err != nil {
		return
	}
	conn.SetReadDeadline(time.Time{})

	var hdr [20]byte
	for {
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			return
		}
		seq := int64(binary.LittleEndian.Uint64(hdr[0:]))
		tag := int(int64(binary.LittleEndian.Uint64(hdr[8:])))
		n := int(binary.LittleEndian.Uint32(hdr[16:]))
		var payload []float64
		if pool := s.t.pool; pool != nil {
			payload = pool.Get(from, n)
		} else {
			payload = make([]float64, n)
		}
		if err := readPayload(conn, payload); err != nil {
			return
		}
		g.mu.Lock()
		if seq != g.delivered+1 {
			// Duplicate retransmission after a reconnect (seq already
			// delivered by the superseded connection) — drop it. A gap
			// forward is impossible: the sender only advances after the
			// hello-ack accounted for everything before.
			g.mu.Unlock()
			if pool := s.t.pool; pool != nil {
				pool.Put(from, payload)
			}
			continue
		}
		g.delivered = seq
		g.mu.Unlock()
		s.t.enqueue(from, to, Message{Tag: tag, Data: payload})
		s.delivered.Add(1)
	}
}

func readPayload(conn net.Conn, dst []float64) error {
	var buf [512]byte
	rem := len(dst) * 8
	i := 0
	var carry [8]byte
	carried := 0
	for rem > 0 {
		n := len(buf)
		if n > rem {
			n = rem
		}
		read, err := conn.Read(buf[:n])
		if err != nil {
			return err
		}
		rem -= read
		b := buf[:read]
		if carried > 0 {
			need := 8 - carried
			if need > len(b) {
				copy(carry[carried:], b)
				carried += len(b)
				continue
			}
			copy(carry[carried:], b[:need])
			dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(carry[:]))
			i++
			b = b[need:]
			carried = 0
		}
		for len(b) >= 8 {
			dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b))
			i++
			b = b[8:]
		}
		if len(b) > 0 {
			carried = copy(carry[:], b)
		}
	}
	return nil
}

// Cancel tears down every connection so blocked reads and writes unwind;
// senders then observe the topology's poisoned state and fail fast. The
// listener stays up (Close retires it) — cancellation poisons a Run, it
// does not end the transport's life.
func (s *sockTransport) Cancel() {
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
}

// Close shuts the listener, closes every connection, waits for the accept
// and demux goroutines, and removes an owned unix socket file. Idempotent.
func (s *sockTransport) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	s.ln.Close()
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	if s.unixOwn != "" {
		os.Remove(filepath.Clean(s.unixOwn))
	}
	return nil
}

// dropLinkConn forcibly severs the sender-side connection of one link —
// the test hook behind the reconnect-on-drop coverage.
func (s *sockTransport) dropLinkConn(from, to int) {
	lk := s.links[from*s.t.p+to]
	lk.mu.Lock()
	s.dropConn(lk)
	lk.mu.Unlock()
}
