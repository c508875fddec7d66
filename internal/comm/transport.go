package comm

// The transport abstraction: how a message physically travels from the
// sender's Endpoint.Send to the receiver's link queue. The Topology keeps
// the policy layer — fault injection, tracing, metrics, cancellation, the
// deadlock watchdog, and the per-link FIFO queues receivers block on — and
// delegates only the delivery step to a Transport, so every implementation
// inherits the same ordering, accounting, and diagnosis semantics.
//
// Two implementations ship:
//
//   - chanTransport (the default): in-process delivery straight into the
//     link queue under its lock. Zero additional cost, zero additional
//     allocations — the steady-state pooled path is byte-for-byte the
//     pre-transport code path.
//   - sockTransport (transport_sock.go): loopback TCP or unix-domain
//     sockets, one connection per ordered rank pair, with per-link write
//     deadlines, bounded exponential-backoff retry, and reconnect-on-drop.
//     Frames are sequence-numbered so a reconnect never duplicates or
//     reorders delivery.

import (
	"errors"
	"fmt"
	"runtime"
	"time"
)

// Transport delivers messages between ranks. Send runs on the sending
// rank's goroutine and reports time spent blocked (backpressure); Recv runs
// on the receiving rank's goroutine and blocks until the next message on
// the (from, to) link is available. Cancel unblocks in-flight operations
// after the topology is poisoned; Close releases sockets and goroutines.
// Implementations must preserve per-link FIFO order and exactly-once
// delivery — the wavefront runtime's bit-identity rests on both.
type Transport interface {
	Send(from, to int, m Message) (time.Duration, error)
	Recv(from, to, tag int) (Message, time.Duration, error)
	Cancel()
	Close() error
}

// TransportKind selects a built-in transport.
type TransportKind uint8

const (
	// TransportChan is in-process channel delivery (the zero-alloc default).
	TransportChan TransportKind = iota
	// TransportTCP is loopback TCP, one connection per ordered rank pair.
	TransportTCP
	// TransportUnix is a unix-domain socket in the system temp directory.
	TransportUnix
)

// String names the kind the way the wavebench -transport flag spells it.
func (k TransportKind) String() string {
	switch k {
	case TransportTCP:
		return "tcp"
	case TransportUnix:
		return "unix"
	default:
		return "chan"
	}
}

// ParseTransportKind parses a -transport flag value.
func ParseTransportKind(s string) (TransportKind, error) {
	switch s {
	case "", "chan":
		return TransportChan, nil
	case "tcp":
		return TransportTCP, nil
	case "unix":
		return TransportUnix, nil
	}
	return TransportChan, fmt.Errorf("comm: unknown transport %q (want chan, tcp, or unix)", s)
}

// Socket-transport defaults, used when the corresponding TransportConfig
// field is zero.
const (
	defaultSockTimeout  = 2 * time.Second
	defaultRetryBase    = 2 * time.Millisecond
	defaultRetryMax     = 200 * time.Millisecond
	defaultMaxAttempts  = 6
	defaultMaxRestarts  = 3
	transportFrameMagic = 0x57465450 // "WFTP"
)

// TransportConfig selects and tunes the delivery mechanism. The zero value
// is the in-process channel transport.
type TransportConfig struct {
	// Kind selects the transport.
	Kind TransportKind
	// Addr is the listen address: "host:port" for TCP (default
	// "127.0.0.1:0") or a socket path for unix (default: a fresh file in
	// the system temp directory, removed on Close).
	Addr string
	// Timeout is the per-link write deadline per frame attempt (socket
	// transports; default 2s).
	Timeout time.Duration
	// RetryBase is the first backoff after a failed frame attempt; each
	// retry doubles it up to RetryMax (defaults 2ms and 200ms).
	RetryBase time.Duration
	RetryMax  time.Duration
	// MaxAttempts bounds the attempts per frame, dial included (default 6).
	MaxAttempts int
}

func (c TransportConfig) withDefaults() TransportConfig {
	if c.Timeout <= 0 {
		c.Timeout = defaultSockTimeout
	}
	if c.RetryBase <= 0 {
		c.RetryBase = defaultRetryBase
	}
	if c.RetryMax < c.RetryBase {
		c.RetryMax = defaultRetryMax
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = defaultMaxAttempts
	}
	return c
}

// chanTransport is the in-process default: delivery is an enqueue on the
// receiver's link under its lock, exactly the pre-transport hot path, so
// the pooled steady state still allocates nothing.
type chanTransport struct{ t *topology }

func (c chanTransport) Send(from, to int, m Message) (time.Duration, error) {
	return c.t.enqueue(from, to, m)
}

func (c chanTransport) Recv(from, to, tag int) (Message, time.Duration, error) {
	return c.t.dequeue(from, to, tag)
}

func (c chanTransport) Cancel()      {}
func (c chanTransport) Close() error { return nil }

// SetTransport selects the delivery mechanism. Must be called before Run;
// socket transports bind their listener and spawn demux goroutines here,
// so callers should defer Close. Socket transports are incompatible with
// SetLinkCapacity: backpressure accounting needs the sender to see the
// receiver's queue, which only the in-process transport can.
func (t *topology) SetTransport(cfg TransportConfig) error {
	switch cfg.Kind {
	case TransportChan:
		t.closeTransport()
		t.tp = chanTransport{t}
		return nil
	case TransportTCP, TransportUnix:
		if t.capacity > 0 {
			return errors.New("comm: socket transports do not support bounded links (SetLinkCapacity)")
		}
		st, err := newSockTransport(t, cfg.withDefaults())
		if err != nil {
			return err
		}
		t.closeTransport()
		t.tp = st
		return nil
	}
	return fmt.Errorf("comm: unknown transport kind %d", cfg.Kind)
}

// closeTransport releases a previously attached socket transport.
func (t *topology) closeTransport() {
	if t.tp != nil {
		t.tp.Close()
	}
}

// Close stops the rank goroutines and the watchdog and releases the
// topology's transport (sockets, demux goroutines, the unix socket file).
// Idempotent; must not overlap a Run. A later Run starts the goroutines
// again, on the channel transport only: a closed socket transport stays
// closed.
func (h *Topology) Close() error {
	runtime.SetFinalizer(h, nil)
	h.stop(true)
	return h.tp.Close()
}
