package xmltree

// IndexDiff exposes indexDiff to the external tests, which build
// documents through packages that import this one.
var IndexDiff = indexDiff
