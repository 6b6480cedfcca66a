package agent

import (
	"net"
	"net/netip"
	"sync"

	"github.com/activedb/ecaagent/internal/engine"
)

// notifier implements the Event Notifier (Figure 15): a lightweight
// listener thread that receives UDP notifications emitted by the generated
// triggers' syb_sendmsg calls, decodes them, and signals the LED.
type notifier struct {
	agent   *Agent
	conn    *net.UDPConn
	wg      sync.WaitGroup
	release func() // ends the engine.ReceiveInProcess registration
}

// startNotifier binds the UDP listener ("127.0.0.1:0" picks an ephemeral
// port, which the code generator then embeds into every trigger).
func startNotifier(a *Agent, addr string) (*notifier, error) {
	udpAddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	conn, err := net.ListenUDP("udp", udpAddr)
	if err != nil {
		return nil, err
	}
	n := &notifier{agent: a, conn: conn}
	// An engine of this process that sends here yields after the send
	// while the agent runs no rule action and no client statement but the
	// sender's (engine.UDPNotifier). addr returns an IP literal.
	host, port := n.addr()
	n.release = engine.ReceiveInProcess(netip.AddrPortFrom(netip.MustParseAddr(host), uint16(port)),
		func() bool { return a.actionq.pending.Load() == 0 && a.execs.Load() <= 1 })
	n.wg.Add(1)
	go n.listen()
	return n, nil
}

// listen is the Notification Listener loop of Figure 15.
func (n *notifier) listen() {
	defer n.wg.Done()
	buf := make([]byte, 64<<10)
	for {
		sz, _, err := n.conn.ReadFromUDP(buf)
		if err != nil {
			return // listener closed
		}
		n.agent.met.notifierDatagrams.Inc()
		n.agent.met.notifierBytes.Add(uint64(sz))
		// The buffer is handed in directly and reused for the next read:
		// DeliverBatchBytes documents that it does not retain the datagram.
		n.agent.DeliverBatchBytes(buf[:sz])
	}
}

func (n *notifier) close() {
	n.release()
	n.conn.Close()
	n.wg.Wait()
}

// addr returns the bound UDP host and port. A wildcard bind (":0",
// "0.0.0.0", "[::]") is rewritten to the matching loopback literal —
// triggers must dial a concrete address — but a real bind address, IPv6
// included, is reported as-is: rewriting "[::1]:0" to 127.0.0.1 would
// point every generated trigger at an address the notifier never bound.
// Callers that build a host:port string must bracket via net.JoinHostPort.
func (n *notifier) addr() (string, int) {
	a := n.conn.LocalAddr().(*net.UDPAddr)
	if a.IP == nil || a.IP.IsUnspecified() {
		if a.IP != nil && a.IP.To4() == nil {
			return "::1", a.Port
		}
		return "127.0.0.1", a.Port
	}
	return a.IP.String(), a.Port
}
