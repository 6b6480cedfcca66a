package engine

import (
	"fmt"
	"net"
	"net/netip"
	"slices"
	"sync"
	"syscall"
	"testing"
	"time"

	"github.com/activedb/ecaagent/internal/catalog"
)

// udpSink listens on addr ("127.0.0.1:0" or "[::1]:0") and returns the
// socket with its port.
func udpSink(t *testing.T, addr string) (*net.UDPConn, int) {
	t.Helper()
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.ListenUDP("udp", ua)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	return ln, ln.LocalAddr().(*net.UDPAddr).Port
}

// receive reads n datagrams and returns them with their source addresses.
func receive(t *testing.T, ln *net.UDPConn, n int) (msgs []string, from []string) {
	t.Helper()
	buf := make([]byte, 1024)
	for len(msgs) < n {
		ln.SetReadDeadline(time.Now().Add(5 * time.Second))
		k, src, err := ln.ReadFromUDP(buf)
		if err != nil {
			t.Fatalf("after %d of %d datagrams: %v", len(msgs), n, err)
		}
		msgs = append(msgs, string(buf[:k]))
		from = append(from, src.String())
	}
	return msgs, from
}

// TestUDPNotifierOneSocket: every datagram leaves through the same socket,
// so a listener sees one source address however many are sent.
func TestUDPNotifierOneSocket(t *testing.T) {
	ln, port := udpSink(t, "127.0.0.1:0")
	send := UDPNotifier()
	const n = 200
	for i := 0; i < n; i++ {
		if err := send("127.0.0.1", port, fmt.Sprintf("m%d", i)); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	msgs, from := receive(t, ln, n)
	for i := range msgs {
		if want := fmt.Sprintf("m%d", i); msgs[i] != want {
			t.Fatalf("datagram %d is %q, want %q", i, msgs[i], want)
		}
		if from[i] != from[0] {
			t.Fatalf("datagram %d came from %s, datagram 0 from %s: want one socket", i, from[i], from[0])
		}
	}
}

// TestUDPNotifierBothFamilies: one notifier reaches an IPv4 and an IPv6
// listener.
func TestUDPNotifierBothFamilies(t *testing.T) {
	send := UDPNotifier()
	ln4, port4 := udpSink(t, "127.0.0.1:0")
	if err := send("127.0.0.1", port4, "v4"); err != nil {
		t.Fatal(err)
	}
	if msgs, _ := receive(t, ln4, 1); msgs[0] != "v4" {
		t.Errorf("IPv4 listener got %q", msgs[0])
	}
	ua, err := net.ResolveUDPAddr("udp6", "[::1]:0")
	if err != nil {
		t.Skipf("no IPv6 loopback: %v", err)
	}
	ln6, err := net.ListenUDP("udp6", ua)
	if err != nil {
		t.Skipf("no IPv6 loopback: %v", err)
	}
	defer ln6.Close()
	if err := send("::1", ln6.LocalAddr().(*net.UDPAddr).Port, "v6"); err != nil {
		t.Fatal(err)
	}
	if msgs, _ := receive(t, ln6, 1); msgs[0] != "v6" {
		t.Errorf("IPv6 listener got %q", msgs[0])
	}
	if err := send("127.0.0.1", port4, "v4 again"); err != nil {
		t.Fatal(err)
	}
	if msgs, _ := receive(t, ln4, 1); msgs[0] != "v4 again" {
		t.Errorf("IPv4 listener got %q", msgs[0])
	}
}

// TestSendMsgFailureReturnsOne: a bad port or a host that does not
// resolve makes syb_sendmsg return 1 without failing the statement, and a
// later good send still arrives.
func TestSendMsgFailureReturnsOne(t *testing.T) {
	ln, port := udpSink(t, "127.0.0.1:0")
	eng := New(catalog.New()) // the production UDP notifier
	s := eng.NewSession("sharma")
	for _, tc := range []struct {
		call string
		want int64
	}{
		{"syb_sendmsg('127.0.0.1', 70000, 'bad port')", 1},
		{"syb_sendmsg('no such host', 9, 'bad host')", 1},
		{"syb_sendmsg('', 9, 'no host')", 1},
		{fmt.Sprintf("syb_sendmsg('127.0.0.1', %d, 'good')", port), 0},
	} {
		rs := mustExec(t, s, "select "+tc.call)
		rows := lastRows(rs)
		if len(rows) != 1 {
			t.Fatalf("%s: rows %v", tc.call, rows)
		}
		if got, _ := rows[0][0].AsInt(); got != tc.want {
			t.Errorf("%s returned %d, want %d", tc.call, got, tc.want)
		}
	}
	if msgs, _ := receive(t, ln, 1); msgs[0] != "good" {
		t.Errorf("listener got %q, want the good send", msgs[0])
	}
}

// TestUDPNotifierConcurrent: sessions share the socket; run under -race.
func TestUDPNotifierConcurrent(t *testing.T) {
	ln, port := udpSink(t, "127.0.0.1:0")
	send := UDPNotifier()
	const senders, each = 8, 25
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := send("127.0.0.1", port, fmt.Sprintf("g%d-%d", g, i)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	msgs, from := receive(t, ln, senders*each)
	seen := make(map[string]bool, len(msgs))
	for i, m := range msgs {
		if seen[m] {
			t.Fatalf("datagram %q arrived twice", m)
		}
		seen[m] = true
		if from[i] != from[0] {
			t.Fatalf("datagram %q came from %s, want %s", m, from[i], from[0])
		}
	}
}

// TestUDPNotifierYieldsAfterSend: the notifier yields once per datagram,
// after the write, so the datagram just sent is already readable when the
// yield runs; it yields only while the destination is read in this
// process by a reader with nothing queued, and never after a failed send.
func TestUDPNotifierYieldsAfterSend(t *testing.T) {
	ln, port := udpSink(t, "127.0.0.1:0")
	raw, err := ln.SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	// Each yield records what a non-blocking read finds on the listener
	// ("" when nothing is there).
	var seen []string
	n := &udpNotifier{addrs: make(map[udpDest]netip.AddrPort), yield: func() {
		buf := make([]byte, 64)
		got := ""
		err := raw.Read(func(fd uintptr) bool {
			if k, _, err := syscall.Recvfrom(int(fd), buf, syscall.MSG_DONTWAIT); err == nil {
				got = string(buf[:k])
			}
			return true // never wait for the socket
		})
		if err != nil {
			t.Error(err)
		}
		seen = append(seen, got)
	}}
	sendAll := func(msgs ...string) {
		t.Helper()
		for _, m := range msgs {
			if err := n.send("127.0.0.1", port, m); err != nil {
				t.Fatalf("send %s: %v", m, err)
			}
		}
	}
	// Read elsewhere: no yield; the datagrams are drained unread.
	sendAll("x0", "x1")
	if len(seen) != 0 {
		t.Errorf("%d yields for a destination no goroutine of this process reads", len(seen))
	}
	receive(t, ln, 2)

	idle := true
	release := ReceiveInProcess(netip.MustParseAddrPort(fmt.Sprintf("127.0.0.1:%d", port)), func() bool { return idle })
	defer release()
	want := []string{"m0", "m1", "m2", "m3", "m4"}
	sendAll(want...)
	if !slices.Equal(seen, want) {
		t.Errorf("the yields found %q readable, want %q: one yield per send, after its write", seen, want)
	}

	// The reader has work queued: no yield.
	idle = false
	sendAll("b0")
	idle = true
	receive(t, ln, 1)
	if len(seen) != len(want) {
		t.Errorf("a send to a reader with work queued yielded (%d yields after %d sends)", len(seen), len(want))
	}

	for _, to := range []struct {
		host string
		port int
	}{{"no such host", port}, {"", port}, {"127.0.0.1", 70000}} {
		if err := n.send(to.host, to.port, "lost"); err == nil {
			t.Errorf("send to %q port %d: no error", to.host, to.port)
		}
	}
	if len(seen) != len(want) {
		t.Errorf("failed sends yielded: %d yields after %d good sends", len(seen), len(want))
	}

	release()
	sendAll("r0")
	if len(seen) != len(want) {
		t.Errorf("a send after release yielded (%d yields after %d sends)", len(seen), len(want))
	}
}
