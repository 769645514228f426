package faultnet

import (
	"bytes"
	"io"
	"net"
	"testing"
	"time"
)

// echoServer accepts connections and echoes bytes back until EOF.
func echoServer(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				io.Copy(c, c)
			}()
		}
	}()
	t.Cleanup(func() { ln.Close() })
	return ln
}

func dialProxy(t *testing.T, p *Proxy) net.Conn {
	t.Helper()
	c, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatalf("dial proxy: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestTransparentEcho(t *testing.T) {
	ln := echoServer(t)
	p, err := New(ln.Addr().String())
	if err != nil {
		t.Fatalf("proxy: %v", err)
	}
	defer p.Close()

	c := dialProxy(t, p)
	msg := []byte("hello through the proxy")
	if _, err := c.Write(msg); err != nil {
		t.Fatalf("write: %v", err)
	}
	got := make([]byte, len(msg))
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := io.ReadFull(c, got); err != nil {
		t.Fatalf("read: %v", err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("echo mismatch: %q != %q", got, msg)
	}
	// The proxy counts a chunk after forwarding it, so the echo can reach
	// the client a moment before the counters move.
	n := int64(len(msg))
	for deadline := time.Now().Add(2 * time.Second); (p.BytesUp.Load() < n || p.BytesDown.Load() < n) && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if p.BytesUp.Load() != n || p.BytesDown.Load() != n {
		t.Fatalf("byte counters: up=%d down=%d want %d", p.BytesUp.Load(), p.BytesDown.Load(), n)
	}
}

func TestLatencyInjection(t *testing.T) {
	ln := echoServer(t)
	p, err := New(ln.Addr().String())
	if err != nil {
		t.Fatalf("proxy: %v", err)
	}
	defer p.Close()
	// 30ms each way — the round trip must take at least ~60ms.
	p.SetFaults(Faults{Latency: 30 * time.Millisecond}, Faults{Latency: 30 * time.Millisecond})

	c := dialProxy(t, p)
	start := time.Now()
	if _, err := c.Write([]byte("x")); err != nil {
		t.Fatalf("write: %v", err)
	}
	buf := make([]byte, 1)
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatalf("read: %v", err)
	}
	if rtt := time.Since(start); rtt < 50*time.Millisecond {
		t.Fatalf("round trip %v, want >= ~60ms with injected latency", rtt)
	}
}

func TestResetAfterBytes(t *testing.T) {
	ln := echoServer(t)
	p, err := New(ln.Addr().String())
	if err != nil {
		t.Fatalf("proxy: %v", err)
	}
	defer p.Close()
	p.SetFaults(Faults{ResetAfterBytes: 10}, Faults{})

	c := dialProxy(t, p)
	if _, err := c.Write(make([]byte, 64)); err != nil {
		t.Fatalf("write: %v", err)
	}
	// The upstream pipe must kill the connection after forwarding >= 10
	// bytes; the client then observes an error on read.
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 64)
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := c.Read(buf); err != nil {
			return // connection died as intended
		}
	}
	t.Fatal("connection survived past ResetAfterBytes")
}

func TestDropEveryNth(t *testing.T) {
	ln := echoServer(t)
	p, err := New(ln.Addr().String())
	if err != nil {
		t.Fatalf("proxy: %v", err)
	}
	defer p.Close()
	p.SetFaults(Faults{DropEveryNth: 2}, Faults{})

	// Connections 2 and 4 are dropped at accept; 1 and 3 echo fine.
	alive := 0
	for i := 0; i < 4; i++ {
		c, err := net.Dial("tcp", p.Addr())
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		c.Write([]byte("ping"))
		c.SetReadDeadline(time.Now().Add(500 * time.Millisecond))
		buf := make([]byte, 4)
		if _, err := io.ReadFull(c, buf); err == nil {
			alive++
		}
		c.Close()
	}
	if alive != 2 {
		t.Fatalf("alive connections = %d, want 2 of 4 with DropEveryNth=2", alive)
	}
}

func TestResetAllAndActiveConns(t *testing.T) {
	ln := echoServer(t)
	p, err := New(ln.Addr().String())
	if err != nil {
		t.Fatalf("proxy: %v", err)
	}
	defer p.Close()

	conns := make([]net.Conn, 3)
	for i := range conns {
		conns[i] = dialProxy(t, p)
		// Force the dial through: a write round-trip proves the pair exists.
		conns[i].Write([]byte("x"))
		buf := make([]byte, 1)
		conns[i].SetReadDeadline(time.Now().Add(2 * time.Second))
		if _, err := io.ReadFull(conns[i], buf); err != nil {
			t.Fatalf("conn %d echo: %v", i, err)
		}
	}
	if n := p.ActiveConns(); n != 3 {
		t.Fatalf("ActiveConns = %d, want 3", n)
	}
	p.ResetAll()
	for i, c := range conns {
		c.SetReadDeadline(time.Now().Add(2 * time.Second))
		buf := make([]byte, 1)
		if _, err := c.Read(buf); err == nil {
			t.Fatalf("conn %d still alive after ResetAll", i)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for p.ActiveConns() != 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := p.ActiveConns(); n != 0 {
		t.Fatalf("ActiveConns = %d after ResetAll, want 0", n)
	}
}

func TestThrottle(t *testing.T) {
	ln := echoServer(t)
	p, err := New(ln.Addr().String())
	if err != nil {
		t.Fatalf("proxy: %v", err)
	}
	defer p.Close()
	// 10 KiB/s upstream: 2 KiB should take ~200ms to forward.
	p.SetFaults(Faults{ThrottleBytesPerSec: 10 << 10}, Faults{})

	c := dialProxy(t, p)
	payload := make([]byte, 2<<10)
	start := time.Now()
	if _, err := c.Write(payload); err != nil {
		t.Fatalf("write: %v", err)
	}
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(c, payload); err != nil {
		t.Fatalf("read: %v", err)
	}
	if el := time.Since(start); el < 100*time.Millisecond {
		t.Fatalf("2KiB at 10KiB/s took %v, want >= ~200ms", el)
	}
}
