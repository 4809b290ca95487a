// Command pandora-node runs ONE Pandora box as its own OS process,
// exchanging audio with peer nodes over UDP datagrams instead of the
// in-process simulated network — the atm.Transport seam exercised for
// real (outgoing segments leave through internal/atm/udptrans, and a
// feeder process injects received datagrams back into the box's
// virtual-time runtime between quanta).
//
// A conference of N nodes is N copies of this command, each given the
// same ordered peer list and its own index:
//
//	pandora-node -scenario scenarios/conference.scn -index 0 -peers 127.0.0.1:7000,127.0.0.1:7001 &
//	pandora-node -scenario scenarios/conference.scn -index 1 -peers 127.0.0.1:7000,127.0.0.1:7001
//
// Node i speaks on VCI 2000+i to every peer and plays every incoming
// VCI 2000+j (j ≠ i) to its speaker, so the mesh is a conference (§4.1)
// with the fabric's role played by the host network. Each process runs
// its own deterministic virtual-time runtime, paced against the wall
// clock in -quantum steps; only the arrival batches from the socket
// are nondeterministic, exactly the boundary the Receiver documents.
//
// The workload comes from the -scenario spec file, the same declarative
// spec pandora-sim runs (see internal/scenario): the node takes its box
// configuration — name, mic workload (none: silent), feature set,
// segment shape, interface rate — from the spec's box at -index, the
// run length from the spec's duration, and an admission budget from
// its balance block. The peer topology still comes from -peers: the
// spec describes boxes and workloads once, and each OS process plays
// one of them.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/atm"
	"repro/internal/atm/udptrans"
	"repro/internal/box"
	"repro/internal/occam"
	"repro/internal/scenario"
)

// vciBase numbers node i's outgoing audio stream vciBase+i on every
// peer, so the mesh needs no signalling: the peer list order IS the
// VCI assignment.
const vciBase = 2000

// vciMux fans one box's outgoing messages out to its peers: the VCI
// identifies the stream, the routing table lists the batched sockets
// that want it. It implements atm.Transport; the datagram is encoded
// once and handed to every peer's Batcher, then the wire reference is
// released (the single release the transport contract allows — on
// error the reference stays with the caller).
//
// Latency is bounded two ways: a Batcher flushes itself when full
// (udptrans.DefaultBatch datagrams), and the wall-clock loop flushes
// after every RunFor quantum, so nothing outlives a quantum.
// Socket errors are counted, not propagated: a UDP send that fails
// (say ECONNREFUSED while a peer is still starting) is a lost
// datagram, the same loss the network itself can inflict.
type vciMux struct {
	routes   map[uint32][]*udptrans.Batcher
	all      []*udptrans.Batcher // every batcher once, for FlushAll
	buf      []byte
	sent     uint64
	unrouted uint64
	sendErrs uint64
}

func (m *vciMux) Send(p *occam.Proc, msg atm.Message) error {
	peers := m.routes[msg.VCI]
	if len(peers) == 0 {
		m.unrouted++
		msg.W.Release()
		return nil
	}
	out, err := udptrans.Encode(m.buf[:0], msg)
	if err != nil {
		return err
	}
	m.buf = out[:0] // keep grown storage for the next message
	for _, b := range peers {
		if err := b.AddRaw(out); err != nil {
			m.sendErrs++
		}
	}
	msg.W.Release()
	m.sent++
	return nil
}

// FlushAll drains every peer's batch onto the wire, counting failed
// sends as datagram loss.
func (m *vciMux) FlushAll() {
	for _, b := range m.all {
		if err := b.Flush(); err != nil {
			m.sendErrs++
		}
	}
}

// Stats sums the syscall amortisation counters over every peer.
func (m *vciMux) Stats() (batches, datagrams uint64) {
	for _, b := range m.all {
		bb, dd := b.Stats()
		batches += bb
		datagrams += dd
	}
	return
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its arguments and streams as parameters, so the test
// can run two nodes in one process. A usage error returns 2.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pandora-node", flag.ContinueOnError)
	fs.SetOutput(stderr)
	index := fs.Int("index", 0, "this node's position in -peers (also its VCI: speaks on 2000+index)")
	peers := fs.String("peers", "127.0.0.1:7000,127.0.0.1:7001", "ordered comma-separated host:port list, one entry per node")
	listen := fs.String("listen", "", "UDP listen address (default: the -peers entry at -index)")
	quantum := fs.Duration("quantum", 10*time.Millisecond, "virtual-time step per socket drain (wall-clock paced; more than 0)")
	scenarioPath := fs.String("scenario", "", "the scenario spec file (required): this node plays its box at -index, for its duration, under its balance budget")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *quantum <= 0 {
		// The wall-clock loop below advances by it: zero would never end.
		fmt.Fprintf(stderr, "pandora-node: need a -quantum of more than 0, not %v\n", *quantum)
		return 2
	}
	peerList := strings.Split(*peers, ",")
	if *index < 0 || *index >= len(peerList) {
		fmt.Fprintf(stderr, "pandora-node: -index %d out of range for %d peers\n", *index, len(peerList))
		return 2
	}
	if *scenarioPath == "" {
		fmt.Fprintln(stderr, "pandora-node: need a -scenario spec file to run")
		return 2
	}
	spec, err := scenario.Load(*scenarioPath)
	if err != nil {
		fmt.Fprintln(stderr, "pandora-node:", err)
		return 1
	}
	if *index >= len(spec.Boxes) {
		fmt.Fprintf(stderr, "pandora-node: scenario %s has %d boxes, -index %d out of range\n",
			spec.Name, len(spec.Boxes), *index)
		return 2
	}
	addr := *listen
	if addr == "" {
		addr = peerList[*index]
	}

	rx, err := udptrans.Listen(addr)
	if err != nil {
		fmt.Fprintf(stderr, "pandora-node: listen %s: %v\n", addr, err)
		return 1
	}
	defer rx.Close()

	out := vciBase + uint32(*index)
	mux := &vciMux{routes: make(map[uint32][]*udptrans.Batcher)}
	for j, peer := range peerList {
		if j == *index {
			continue
		}
		t, err := udptrans.Dial(peer)
		if err != nil {
			fmt.Fprintf(stderr, "pandora-node: dial %s: %v\n", peer, err)
			return 1
		}
		defer t.Close()
		b := udptrans.NewBatcher(t, udptrans.DefaultBatch)
		mux.routes[out] = append(mux.routes[out], b)
		mux.all = append(mux.all, b)
	}

	rt := occam.NewRuntime()
	netw := atm.New(rt)
	// A box's crash and sink-stall windows are simulation faults: a node runs none.
	bs := spec.Boxes[*index]
	cfg := bs.Config
	cfg.Mic, cfg.Crashes = bs.Mic.Source(), nil
	name, total := cfg.Name, spec.Duration
	b := box.New(rt, netw, cfg)
	b.Host().SetTransport(mux)

	// The node-side slice of the balancer control plane: pandora-node
	// runs one box, so placement and migration live in the full
	// simulation — what a single box CAN do is admission. Under the
	// spec's `balance budget=N` (N > 0) only the first N peer streams
	// get a speaker route; the rest are refused outright (their
	// segments are dropped at the switch, never mixed) instead of
	// degrading everyone's playout.
	budget := 0
	if spec.Balance != nil {
		budget = spec.Balance.Budget
	}
	admitted, rejected := 0, 0

	// Routes: our mic to the network on our VCI, every peer VCI to the
	// speaker. Installed from inside virtual time, like any command.
	rt.Go(name+".control", nil, occam.High, func(p *occam.Proc) {
		b.SetRoute(p, box.Route{Stream: out, Outputs: []box.Output{box.OutNetwork}, NetVCIs: []uint32{out}})
		for j := range peerList {
			if j == *index {
				continue
			}
			if budget > 0 && admitted >= budget {
				rejected++
				continue
			}
			admitted++
			b.SetRoute(p, box.Route{Stream: vciBase + uint32(j), Outputs: []box.Output{box.OutSpeaker}})
		}
		b.StartMic(p, out)
	})

	// Feeder: delivers drained datagrams into the runtime. pending is
	// filled by the wall-clock loop between RunFor quanta and consumed
	// here inside them — the two never run concurrently, so no lock.
	var pending []atm.Message
	host := b.Host()
	rt.Go(name+".netrx", nil, occam.High, func(p *occam.Proc) {
		for {
			p.Sleep(time.Millisecond)
			for _, m := range pending {
				host.Deliver(p, m)
			}
			pending = pending[:0]
		}
	})

	start := time.Now()
	for vt := time.Duration(0); vt < total; vt += *quantum {
		pending = append(pending, rx.Drain()...)
		if err := rt.RunFor(*quantum); err != nil {
			fmt.Fprintf(stderr, "pandora-node: runtime: %v\n", err)
			return 1
		}
		mux.FlushAll()
		if ahead := vt + *quantum - time.Since(start); ahead > 0 {
			time.Sleep(ahead)
		}
	}
	rt.Shutdown()

	fmt.Fprintf(stdout, "%s: %s conference with %d peers on %s\n", name, total, len(peerList)-1, addr)
	if spec.Balance != nil {
		fmt.Fprintf(stdout, "  balance: %d peer streams admitted, %d rejected (budget %d)\n",
			admitted, rejected, budget)
	}
	a := b.AudioStats()
	batches, datagrams := mux.Stats()
	fmt.Fprintf(stdout, "  mic: %d segments sent on VCI %d (%d datagram sends, %d unrouted)\n",
		a.MicSegs, out, mux.sent, mux.unrouted)
	if batches > 0 {
		fmt.Fprintf(stdout, "  udp: %d datagrams in %d sendmmsg batches (%.1f per syscall)\n",
			datagrams, batches, float64(datagrams)/float64(batches))
	}
	if mux.sendErrs > 0 {
		fmt.Fprintf(stdout, "  udp: %d batches lost to socket errors\n", mux.sendErrs)
	}
	for j := range peerList {
		if j == *index {
			continue
		}
		vci := vciBase + uint32(j)
		st, lat := b.Mixer().Stats(vci), b.Mixer().Playout(vci)
		fmt.Fprintf(stdout, "  VCI %d (n%02d): %d segments, %d lost, %d concealed, %d silence insertions",
			vci, j, st.Segments, st.LostSegments, st.Concealed, st.Clawback.SilenceInserted)
		if lat.Count() > 0 {
			fmt.Fprintf(stdout, ", playout mean %s", lat.Mean())
		}
		fmt.Fprintln(stdout)
	}
	if errs := rx.DecodeErrs(); errs != 0 {
		fmt.Fprintf(stdout, "  %d undecodable datagrams dropped\n", errs)
	}
	return 0
}
