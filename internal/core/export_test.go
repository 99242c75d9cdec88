package core

// AnalyzerCacheStats reports the cumulative cache hit and miss
// counts since process start (or the last ResetAnalyzerCache).
func AnalyzerCacheStats() (hits, misses uint64) {
	return cacheHits.Load(), cacheMisses.Load()
}
