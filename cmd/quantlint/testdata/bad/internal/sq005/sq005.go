// Package sq005 holds a summary type missing the sanitizer contract.
// The finding fires at the registration site in the root quantiles.go.
package sq005

// Leaky looks like a summary — it has Count and Quantile — but lacks
// the Invariants() error method. It takes no writes, so it owes no
// codec (SQ013) and trips SQ005 alone.
type Leaky struct {
	n int64
}

// Count reports the stream length.
func (l *Leaky) Count() int64 { return l.n }

// Quantile answers a constant; accuracy is not the point here.
func (l *Leaky) Quantile(phi float64) uint64 { return 0 }
