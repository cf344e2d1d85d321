package cleanstream

// matrixSummaries is the codec safety net's table of registered
// writable summaries; quantlint SQ013 reads the names from it.
var matrixSummaries = []struct {
	name  string
	fresh func() *Good
}{
	{"good", NewGood},
}
