package graph

// ReferenceMCA exposes the frozen Chu–Liu/Edmonds to the external tests,
// which build instances from packages that import this one.
var ReferenceMCA = referenceMCA
