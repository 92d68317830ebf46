//go:build !race

package xmltree

const raceEnabled = false
