#include "util/file_bytes.h"

#include <filesystem>
#include <fstream>

namespace onex {

Result<std::string> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) {
    return std::filesystem::exists(path)
               ? Status::IOError("cannot open '" + path + "'")
               : Status::NotFound("'" + path + "' does not exist");
  }
  const std::streamoff size = in.tellg();
  if (size < 0) return Status::IOError("cannot size '" + path + "'");
  std::string bytes(static_cast<size_t>(size), '\0');
  in.seekg(0);
  in.read(bytes.data(), size);
  if (in.gcount() != size) {
    return Status::IOError("read failed for '" + path + "'");
  }
  return bytes;
}

}  // namespace onex
