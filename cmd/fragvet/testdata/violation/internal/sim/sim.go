// Package sim holds one deliberate ctxflow violation for the fragvet
// end-to-end test.
package sim

import "context"

// Op drops its caller's context mid-chain.
func Op(ctx context.Context) error {
	return step(context.Background())
}

func step(ctx context.Context) error { return ctx.Err() }
