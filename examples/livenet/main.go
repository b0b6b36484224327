// Live sockets: the same protocol state machines running in real time
// over REAL loopback UDP sockets, where every message crosses the kernel
// through the binary wire codec, the sender is authenticated by source
// address, and the paper's bounded-delay axiom is enforced by deadline
// drops. This is the single-process version of the cmd/ssbyz-node daemon
// topology (see README "Running a real cluster").
//
// Run with: go run ./examples/livenet
package main

import (
	"fmt"
	"log"
	"time"

	"ssbyz"
)

func main() {
	// Each node owns a loopback UDP socket: every message is serialized,
	// authenticated, and subject to the transport's d deadline (frames
	// older than d = 100 ticks × 100µs = 10ms are dropped as the model
	// demands). Swap "udp" for "tcp" to see the lossless stream baseline.
	eng, err := ssbyz.New(ssbyz.WithN(4), ssbyz.WithD(100),
		ssbyz.WithRuntime(ssbyz.SocketRuntime("udp", 0)))
	if err != nil {
		log.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		log.Fatal(err)
	}
	defer eng.Stop()
	pp := eng.Params()
	fmt.Printf("socket cluster (loopback UDP): n=%d f=%d d=%d ticks (≈%v wall)\n",
		pp.N, pp.F, pp.D, 10*time.Millisecond)

	for i, v := range []ssbyz.Value{"config-v1", "over-the-wire"} {
		g := ssbyz.NodeID(i % pp.N)
		s, err := eng.OpenSession(g)
		if err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		if err := s.Propose(v); err != nil {
			log.Fatalf("propose %q at node %d: %v", v, g, err)
		}
		decided, err := eng.Await(g, 10*time.Second)
		if err != nil {
			log.Fatalf("await %q: %v", v, err)
		}
		fmt.Printf("general %d: all nodes decided %q over real sockets in %v\n",
			g, decided, time.Since(start).Round(time.Millisecond))
	}

	// The collected trace passes the full property battery — the same
	// checkers the simulator uses, now judging real network behaviour.
	if vs := eng.CheckLive(); len(vs) != 0 {
		log.Fatalf("battery violations over the socket trace: %v", vs)
	}
	fmt.Println("socket trace checked: every paper bound holds ✓")
}
