package box

import (
	"fmt"
	"time"

	"repro/internal/occam"
)

// Reports (§1.2): "Reports are collected from all main processes, and
// multiplexed together. They are usually in the form of text messages
// generated when Pandora is overloaded, when some error has been
// detected, when a command has requested some information, or on
// occasion just to say that everything is all right. Reports are sent
// to the host computer for display or logging."

// Report is one multiplexed report line.
type Report struct {
	At      occam.Time
	Process string
	Text    string
}

func (r Report) String() string {
	return fmt.Sprintf("[%8.3fms] %-20s %s", r.At.Millis(), r.Process, r.Text)
}

// reportMinPeriod rate-limits repeats: "send messages on the report
// channel as soon as possible subject to a minimum period between
// reports for any particular sort of error".
const reportMinPeriod = 100 * time.Millisecond

// Reporter is one process's handle on the box's multiplexed report
// stream, with per-kind rate limiting.
type Reporter struct {
	process string
	log     *HostLog
	last    map[string]occam.Time
}

func newReporter(process string, log *HostLog) *Reporter {
	return &Reporter{process: process, log: log}
}

// Report emits a report of the given kind, suppressing repeats of the
// same kind within the minimum period. Logging is an append — zero
// virtual time — so it can never stall a time-critical process.
func (r *Reporter) Report(p *occam.Proc, kind, format string, args ...any) {
	now := p.Now()
	if t, ok := r.last[kind]; ok && now.Sub(t) < reportMinPeriod {
		return
	}
	set(&r.last, kind, now)
	r.log.lines = append(r.log.lines, Report{At: now, Process: r.process, Text: fmt.Sprintf(format, args...)})
}

// HostLog is the host-side collector: the box's multiplexed reports
// kept in memory, like the log file on the workstation (§3.8). The
// zero value is an empty log.
type HostLog struct {
	lines []Report
}
