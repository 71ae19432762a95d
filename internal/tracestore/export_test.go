package tracestore

// TempFile and SetWrapTemp let tests outside the package fail slab writes.
type TempFile = tempFile

func SetWrapTemp(s *Store, wrap func(TempFile) TempFile) { s.wrapTemp = wrap }
