#pragma once

/// \file objects.h
/// Opaque runtime object types produced by New-Object and .NET statics.
/// These model just enough of the corresponding .NET classes to execute the
/// recovery code that wild obfuscated scripts embed (paper section III-B).

#include <memory>
#include <string>

#include "psinterp/encodings.h"
#include "psvalue/value.h"

namespace ps {

/// System.Net.WebClient. Network activity is routed through the
/// interpreter's effect recorder; the object itself only carries state.
class WebClientObject final : public PsObject {
 public:
  [[nodiscard]] std::string type_name() const override {
    return "System.Net.WebClient";
  }
};

/// System.IO.MemoryStream over a byte buffer.
class MemoryStreamObject final : public PsObject {
 public:
  explicit MemoryStreamObject(ByteVec data) : data(std::move(data)) {}
  [[nodiscard]] std::string type_name() const override {
    return "System.IO.MemoryStream";
  }
  ByteVec data;
  std::size_t position = 0;
};

/// System.IO.Compression.DeflateStream wrapping a MemoryStream.
class DeflateStreamObject final : public PsObject {
 public:
  DeflateStreamObject(std::shared_ptr<MemoryStreamObject> inner, bool decompress)
      : inner(std::move(inner)), decompress(decompress) {}
  [[nodiscard]] std::string type_name() const override {
    return "System.IO.Compression.DeflateStream";
  }
  std::shared_ptr<MemoryStreamObject> inner;
  bool decompress;
};

/// System.IO.StreamReader over a stream, with a text encoding.
class StreamReaderObject final : public PsObject {
 public:
  StreamReaderObject(std::shared_ptr<PsObject> stream, TextEncoding encoding)
      : stream(std::move(stream)), encoding(encoding) {}
  [[nodiscard]] std::string type_name() const override {
    return "System.IO.StreamReader";
  }
  std::shared_ptr<PsObject> stream;
  TextEncoding encoding;
};

/// System.Security.SecureString; `plain` is the protected text.
class SecureStringObject final : public PsObject {
 public:
  explicit SecureStringObject(std::string plain) : plain(std::move(plain)) {}
  [[nodiscard]] std::string type_name() const override {
    return "System.Security.SecureString";
  }
  std::string plain;
};

/// The BSTR pointer produced by Marshal::SecureStringToBSTR.
class BstrObject final : public PsObject {
 public:
  explicit BstrObject(std::string plain) : plain(std::move(plain)) {}
  [[nodiscard]] std::string type_name() const override { return "System.IntPtr"; }
  std::string plain;
};

/// [Text.Encoding]::Unicode / UTF8 / ASCII instances.
class EncodingObject final : public PsObject {
 public:
  explicit EncodingObject(TextEncoding enc) : enc(enc) {}
  [[nodiscard]] std::string type_name() const override {
    switch (enc) {
      case TextEncoding::Ascii: return "System.Text.ASCIIEncoding";
      case TextEncoding::Utf8: return "System.Text.UTF8Encoding";
      case TextEncoding::Unicode: return "System.Text.UnicodeEncoding";
      case TextEncoding::BigEndianUnicode: return "System.Text.UnicodeEncoding";
    }
    return "System.Text.Encoding";
  }
  TextEncoding enc;
};

/// The seed of System.Random without one, and of each interpreter's
/// Get-Random (reproducible runs).
constexpr std::uint64_t kDefaultRandomSeed = 0x9E3779B97F4A7C15ull;

/// One draw in [lo, hi) from an LCG `state`, which it advances.
inline std::int64_t random_next(std::uint64_t& state, std::int64_t lo,
                                std::int64_t hi) {
  state = state * 6364136223846793005ull + 1442695040888963407ull;
  const std::uint64_t x = state >> 17;
  if (hi <= lo) return lo;
  return lo + static_cast<std::int64_t>(
                  x % static_cast<std::uint64_t>(hi - lo));
}

/// System.Random with a deterministic default seed (reproducible runs).
class RandomObject final : public PsObject {
 public:
  explicit RandomObject(std::uint64_t seed = kDefaultRandomSeed) : state(seed) {}
  [[nodiscard]] std::string type_name() const override { return "System.Random"; }
  std::uint64_t state;

  std::int64_t next(std::int64_t lo, std::int64_t hi) {
    return random_next(state, lo, hi);
  }
};

/// System.Net.Sockets.TcpClient (connection recorded, no real socket).
class TcpClientObject final : public PsObject {
 public:
  TcpClientObject(std::string host, int port) : host(std::move(host)), port(port) {}
  [[nodiscard]] std::string type_name() const override {
    return "System.Net.Sockets.TcpClient";
  }
  std::string host;
  int port;
};

/// $ExecutionContext.InvokeCommand — the engine-intrinsics object whose
/// InvokeScript method is a well-known Invoke-Expression disguise.
class InvokeCommandObject final : public PsObject {
 public:
  [[nodiscard]] std::string type_name() const override {
    return "System.Management.Automation.CommandInvocationIntrinsics";
  }
};

/// $ExecutionContext.
class ExecutionContextObject final : public PsObject {
 public:
  [[nodiscard]] std::string type_name() const override {
    return "System.Management.Automation.EngineIntrinsics";
  }
};

/// System.Diagnostics.Process handle returned by Start-Process -PassThru.
class ProcessObject final : public PsObject {
 public:
  explicit ProcessObject(std::string command_line)
      : command_line(std::move(command_line)) {}
  [[nodiscard]] std::string type_name() const override {
    return "System.Diagnostics.Process";
  }
  std::string command_line;
};

}  // namespace ps
