package server

// SetStreamAbove lowers the streaming threshold of both tiers for one
// test, so modest fixtures take the streamed path; it returns the
// restore.
func SetStreamAbove(n int) (restore func()) {
	old := streamAbove
	streamAbove = n
	return func() { streamAbove = old }
}
