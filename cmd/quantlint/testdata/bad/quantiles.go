// Package badstream is the deliberately rule-violating fixture for
// quantlint's golden tests: each internal/sqNNN package trips exactly
// rule SQNNN, and this registry file trips SQ005.
package badstream

import (
	"badmod/internal/sq005"
	"badmod/internal/sq013"
)

// Leaky is a summary whose implementation forgot the sanitizer
// contract: sq005.Leaky has Count and Quantile but no Invariants.
type Leaky = sq005.Leaky

// HalfWired is registered with a one-way codec: the SQ013 findings
// anchor at its MarshalBinary declaration.
type HalfWired = sq013.HalfWired

// NewHalfWired is the constructor whose key the golden-fixture and
// matrix-seed checks derive.
func NewHalfWired() *HalfWired { return sq013.New() }

// Codecless accepts writes but has no codec: the SQ013 finding anchors
// at its Update declaration.
type Codecless = sq013.Codecless
