// Package blocks provides the index-space partitioner shared by the
// benchmark variants' task decompositions: contiguous chunks of bounded size.
package blocks

// Ranges splits [0, n) into contiguous chunks of at most `chunk` elements.
func Ranges(n, chunk int) [][2]int {
	if chunk < 1 {
		chunk = 1
	}
	var out [][2]int
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		out = append(out, [2]int{lo, hi})
	}
	return out
}
