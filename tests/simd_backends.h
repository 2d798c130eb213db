// Test helpers for the SIMD backend axis of the byte-identity contract:
// pin a backend for a scope, and list every backend this build and CPU
// can actually run (scalar always; AVX2 when available).
#pragma once

#include <vector>

#include "util/simd.h"

namespace mcharge {

/// Pins a backend for a scope; restores the previous one on exit.
class BackendGuard {
 public:
  explicit BackendGuard(simd::Backend b) : prev_(simd::active_backend()) {
    active_ = simd::set_backend(b);
  }
  ~BackendGuard() { simd::set_backend(prev_); }
  BackendGuard(const BackendGuard&) = delete;
  BackendGuard& operator=(const BackendGuard&) = delete;
  simd::Backend active() const { return active_; }

 private:
  simd::Backend prev_;
  simd::Backend active_;
};

/// All backends this build + CPU can actually run.
inline std::vector<simd::Backend> supported_backends() {
  std::vector<simd::Backend> out{simd::Backend::kScalar};
  BackendGuard guard(simd::Backend::kAvx2);
  if (guard.active() == simd::Backend::kAvx2) out.push_back(guard.active());
  return out;
}

}  // namespace mcharge
