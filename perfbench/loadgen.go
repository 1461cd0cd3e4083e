package main

import (
	"context"
	"time"
)

// timing is one operation's schedule and outcome: when it was due,
// when the generator actually sent it, and when its answer arrived,
// all relative to the phase start.
type timing struct {
	Due, Sent, Done time.Duration
}

// latency is charged from the due time, so time an operation spent
// queued behind a slow predecessor counts against it.
func (t timing) latency() time.Duration { return t.Done - t.Due }

// lag is how late the generator sent the operation.
func (t timing) lag() time.Duration { return t.Sent - t.Due }

// schedule runs n operations from one client, operation i scheduled at
// start + i*interval, and returns their timings.
//
// Open loop (paced false): operation i is due at its scheduled time
// whether or not earlier ones have answered. A late operation is sent
// as soon as the client frees up and is still timed from its due time,
// so a stall inflates every operation queued behind it instead of
// silently thinning the load (no coordinated omission).
//
// Paced (paced true): the client keeps exactly one operation
// outstanding, so operation i is due at its scheduled time or when
// operation i-1 answered, whichever is later. A slow operation does not
// push its successors' due times back, because a client with one
// operation outstanding does not want the next one until the previous
// has answered.
func schedule(ctx context.Context, start time.Time, n int, interval time.Duration, paced bool, do func(i int)) []timing {
	out := make([]timing, 0, n)
	var prevDone time.Duration
	for i := 0; i < n; i++ {
		due := time.Duration(i) * interval
		if paced {
			due = max(due, prevDone)
		}
		if wait := time.Until(start.Add(due)); wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-ctx.Done():
				t.Stop()
				return out
			case <-t.C:
			}
		}
		sent := time.Since(start)
		do(i)
		prevDone = time.Since(start)
		out = append(out, timing{Due: due, Sent: sent, Done: prevDone})
	}
	return out
}
