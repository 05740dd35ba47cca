package estimate

// CalibMemoLen returns the number of profiles CalibrateCached has
// calibrated and holds.
func CalibMemoLen() int {
	n := 0
	calibMemo.Range(func(_, _ any) bool {
		n++
		return true
	})
	return n
}
