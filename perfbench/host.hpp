// The host block every result carries, and the rule that refuses to record
// a baseline from a build whose timings mean nothing (Debug, no optimisation
// flags, or a sanitizer).
#pragma once

#include <string>
#include <thread>

#include "common/json.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE ""
#endif
#ifndef PERFBENCH_SANITIZE
#define PERFBENCH_SANITIZE ""
#endif

namespace perfbench {

struct Host {
  unsigned nproc = 0;
  std::string compiler;
  std::string build_type;
  std::string supmr_obs;
  std::string sanitizer;  // "none" when the build has none
};

inline Host this_host() {
  Host h;
  h.nproc = std::thread::hardware_concurrency();
#if defined(__clang__)
  h.compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  h.compiler = "gcc " __VERSION__;
#else
  h.compiler = "unknown";
#endif
  h.build_type = PERFBENCH_BUILD_TYPE;
#ifdef SUPMR_OBS_DISABLED
  h.supmr_obs = "OFF";
#else
  h.supmr_obs = "ON";
#endif
  h.sanitizer = PERFBENCH_SANITIZE;
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  if (h.sanitizer.empty()) h.sanitizer = "compiler-flags";
#endif
  if (h.sanitizer.empty()) h.sanitizer = "none";
  return h;
}

// Why `h` must not record a baseline, or "" when it may.
inline std::string baseline_refusal(const Host& h) {
  if (h.sanitizer != "none") return "sanitizer build (" + h.sanitizer + ")";
  if (h.build_type != "Release" && h.build_type != "RelWithDebInfo" &&
      h.build_type != "MinSizeRel") {
    return "unoptimised build (CMAKE_BUILD_TYPE='" + h.build_type + "')";
  }
  return "";
}

inline std::string host_json(const Host& h) {
  supmr::JsonWriter w;
  w.begin_object();
  w.kv("nproc", std::uint64_t{h.nproc});
  w.kv("compiler", h.compiler);
  w.kv("build_type", h.build_type);
  w.kv("supmr_obs", h.supmr_obs);
  w.kv("sanitizer", h.sanitizer);
  w.end_object();
  return w.str();
}

}  // namespace perfbench
