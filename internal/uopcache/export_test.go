package uopcache

// LineBuckets exposes the line-count table's bucket count, so external tests
// can build distinct lines that share a bucket.
const LineBuckets = lineBuckets
