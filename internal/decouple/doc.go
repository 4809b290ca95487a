// Package decouple implements the decoupling buffers of paper §3.7.1:
// circular FIFO queues of segment references inserted between
// processes or hardware units that do not run synchronously, so that
// "the poor performance of one output device does not affect streams
// to other output devices" (principle 5).
//
// A Buffer is passive: the Ring plus one staged head item, with no
// process of its own. Queueing spends no virtual time, so it runs
// inline in the producer and the consumer; a consumer that finds the
// buffer empty, and a Send that finds it full, park on a signal the
// other side raises. The ready protocol of figure 3.6 — an immediate
// TRUE/FALSE after every input, so upstream can throw data away
// instead of blocking — is Deliver's return value, with refusals
// counted on decouple_refused_total{buffer=...}; Send is the plain
// blocking buffer. A buffer answers its report command (Report,
// carrying length, limit and pointer positions) as a direct call,
// which makes it immediate (principle 4).
//
// Observability: the registry passed to New receives the live
// occupancy and limit as decouple_queued/decouple_limit gauges and the
// lifetime activity as decouple_pushed_total/decouple_popped_total
// counters — the depth signals the overload controller in
// internal/degrade watches. Fault injection (SetStall) simulates a
// stuck sink channel: the head item is withheld for the configured
// outage windows while the queue fills, counted on
// decouple_stalled_total.
package decouple
