package relstore

// QueryNaive, ResultsEqual and SaveDigest expose the oracle executor,
// the result identity check and the file-format digest to package
// relstore_test, whose tests load the Figure 1 schema through vulndb, a
// package that imports relstore.
func (db *DB) QueryNaive(sql string, args ...Value) (*Result, error) {
	return db.queryNaive(sql, args...)
}

var (
	ResultsEqual = resultsEqual
	SaveDigest   = saveDigest
)
