package sparse

// PermuteSymmetricSorted exposes the sort-based oracle to the external
// test package, whose fuzz target and benchmark need internal/check and
// internal/gen (both import this package).
var PermuteSymmetricSorted = permuteSymmetricSorted
