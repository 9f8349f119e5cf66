// Copyright 2026 The ONEX Reproduction Authors.
// Whole-file reads for the cold path: a snapshot, delta or FETCH
// artifact is read into one string sized from the file up front, with
// no stream-buffer copy in between.

#ifndef ONEX_UTIL_FILE_BYTES_H_
#define ONEX_UTIL_FILE_BYTES_H_

#include <string>

#include "util/status.h"

namespace onex {

/// The bytes of the file at `path`. NotFound when it does not exist,
/// IOError when it cannot be opened or read in full.
Result<std::string> ReadFileBytes(const std::string& path);

}  // namespace onex

#endif  // ONEX_UTIL_FILE_BYTES_H_
