// Repository: record a live stream, re-segment it off-line from 2 ms
// blocks into the 40 ms archive format (320 bytes + 36-byte header,
// §3.2), then play it back to another box — videomail, end to end
// (§4.1).
//
//	go run ./examples/repository
package main

import (
	"fmt"
	"time"

	"repro/internal/atm"
	"repro/internal/box"
	"repro/internal/core"
	"repro/internal/occam"
	"repro/internal/workload"
)

func main() {
	sys := core.NewSystem()
	defer sys.Shutdown()
	sys.AddBox(box.Config{Name: "sender", Mic: workload.NewSpeech(3, 13000)})
	sys.AddBox(box.Config{Name: "listener"})
	sys.AddRepository("archive")
	sys.Connect("sender", "archive", atm.LinkConfig{Bandwidth: 100_000_000})
	sys.Connect("archive", "listener", atm.LinkConfig{Bandwidth: 100_000_000})

	// Record 10 seconds of the sender's microphone.
	var rec *core.Stream
	sys.Control(func(p *occam.Proc) {
		rec = sys.SendAudio(p, "sender", "archive")
		p.Sleep(10 * time.Second)
		sys.Close(p, rec)
	})
	if err := sys.RunFor(11 * time.Second); err != nil {
		panic(err)
	}

	recording := sys.Repository("archive").Recording(rec.VCI("archive"))
	fmt.Printf("recorded %v of audio in %d live segments (%d bytes, %.0f%% headers)\n",
		recording.Duration(), len(recording.Segments),
		recording.StoredBytes(), recording.HeaderOverhead()*100)

	// Off-line re-segmentation: "splitting out the 2ms blocks, and
	// merging them to form 40ms long segments".
	merged := recording.Resegment()
	fmt.Printf("re-segmented to %d archive segments (%d bytes, %.0f%% headers) — %.1fx smaller\n",
		len(merged.Segments), merged.StoredBytes(), merged.HeaderOverhead()*100,
		float64(recording.StoredBytes())/float64(merged.StoredBytes()))

	// Play the archive copy back to the listener.
	var vci uint32
	sys.Control(func(p *occam.Proc) {
		vci = sys.PlayTo(p, "archive", merged, "listener")
	})
	if err := sys.RunFor(11 * time.Second); err != nil {
		panic(err)
	}
	got := sys.Box("listener").Mixer().Stats(vci)
	fmt.Printf("playback: listener received %d blocks of %d (%d lost)\n",
		got.Blocks, merged.Blocks(), got.LostSegments)
	fmt.Println("\"These can be played back directly to any Pandora box\" (§3.2)")
}
