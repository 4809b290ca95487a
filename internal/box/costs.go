package box

import "time"

// Calibrated CPU cost constants.
//
// The paper reports capacities, not per-operation costs (§4.2): the
// T425 audio transputer "can mix five audio streams in the
// straightforward case, but only three if we have jitter correction,
// muting, an outgoing stream and the interface code running at the
// same time". These constants are chosen so the simulated audio board
// reproduces exactly those capacities within its 2 ms tick budget:
//
//	plain:  tickBase + n·mixCost ≤ 2 ms
//	        5 streams: 150 + 5·320 = 1750 µs ≤ 2000   (fits)
//	        6 streams: 150 + 6·320 = 2070 µs > 2000   (overload)
//
//	loaded: tickBase + muteCost + outgoingCost + interfaceCost
//	        + n·(mixCost + clawCost) ≤ 2 ms
//	        3 streams: 150+150+200+250 + 3·380 = 1890 µs ≤ 2000
//	        4 streams: 150+150+200+250 + 4·380 = 2270 µs > 2000
//
// Experiment E1 verifies this calibration stays consistent.
//
// The block handler ticks every 2 ms while a stream plays, and charges
// a tick's mixing pass as one Low grant, which the outgoing side's High
// requests preempt (occam.Node); an idle board's ticks are counted
// lazily. A silent tick costs tickBase plus the fixed extras (at most
// 550 µs), and the microphone's outgoingCost goes first at each tick
// instant, so the two fit in 2 ms and a tick that is skipped delays no
// other turn.
const (
	// audioTickBase is the block handler's fixed per-tick work
	// (codec fifo service, scheduling).
	audioTickBase = 150 * time.Microsecond
	// audioMixCost is the per-stream cost of mixing one 2 ms block.
	audioMixCost = 320 * time.Microsecond
	// audioClawCost is the per-stream overhead of jitter correction
	// (clawback buffer bookkeeping).
	audioClawCost = 60 * time.Microsecond
	// audioMuteCost is the muting detector + table lookup per tick.
	audioMuteCost = 150 * time.Microsecond
	// audioOutgoingCost is the per-tick cost of producing the
	// outgoing stream (reading the codec fifo, scaling, batching).
	audioOutgoingCost = 200 * time.Microsecond
	// audioInterfaceCost is the interface code's per-tick share.
	audioInterfaceCost = 250 * time.Microsecond

	// serverSwitchCost is the server's per-segment switching work
	// (table lookup and one descriptor send per destination). The
	// server copies data "once into memory, and once out for each
	// output device"; the block moves are accounted per byte.
	serverSwitchCost = 10 * time.Microsecond
	// serverCopyPerKB approximates the single block-move instruction
	// cost per kilobyte in or out of segment buffer memory.
	serverCopyPerKB = 15 * time.Microsecond

	// captureSliceCost is the per-slice cost of feeding the
	// compression pipeline.
	captureSliceCost = 30 * time.Microsecond
	// displaySegmentCost is the mixer board's per-segment cost of
	// decompression management and assembly.
	displaySegmentCost = 60 * time.Microsecond
)

// Fixed structural constants of the box (§1.2, §3.5, §3.6).
const (
	// audioLinkBandwidth is the audio↔server transputer link:
	// "The 20Mbit/s link to the server transputer".
	audioLinkBandwidth = 20_000_000
	// fifoBandwidth is the video fifo path: "Video 100 Mbit/s Fifo".
	fifoBandwidth = 100_000_000

	// poolBuffers sizes the server's segment buffer pool.
	poolBuffers = 64
	// switchBufferSegments sizes the decoupling buffers downstream of
	// the switch.
	switchBufferSegments = 16
	// netVideoBufferSegments bounds the video buffer before the
	// network output: "We limit the size of this buffer so that the
	// video delays do not become aggravating to the user".
	netVideoBufferSegments = 8
	// netAudioBufferSegments is the separate audio buffer of figure
	// 3.7, "so that it can be given priority".
	netAudioBufferSegments = 32
)
