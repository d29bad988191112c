#include "core/engine_registry.hpp"

#include <atomic>
#include <cstdlib>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "core/gemm_simd.hpp"

namespace rhw::core {

namespace {

// Typed option extraction with leftover rejection, shared with the other
// five seams (core/spec.hpp). The "engine" domain string keeps the
// common error-message shape ("engine option threads: bad non-negative
// integer 'abc'").
OptionReader reader_for(const std::string& engine, const EngineOptions& opts) {
  return OptionReader("engine", engine, opts);
}

EnginePtr make_naive(const EngineOptions& opts) {
  auto reader = reader_for("naive", opts);
  reader.finish();
  return std::make_shared<NaiveEngine>();
}

EnginePtr make_simd(const EngineOptions& opts) {
  auto reader = reader_for("simd", opts);
  const uint64_t threads = reader.integer("threads", 0);
  reader.finish();
  return std::make_shared<SimdEngine>(threads);  // validates threads
}

}  // namespace

void EngineDomain::register_builtins(EngineRegistry& registry) {
  registry.add("naive", make_naive);
  registry.add("simd", make_simd);
}

EnginePtr make_engine(const std::string& spec) {
  return EngineRegistry::instance().create(spec);
}

// -- active engine ------------------------------------------------------------

namespace {

// Hot-path dispatch is a single acquire load of this pointer. Every engine
// that has ever been active is pinned in g_pinned (engines are tiny,
// immutable and few), so the raw pointer — including the one an EngineScope
// restores — can never dangle.
std::mutex g_active_mutex;
std::atomic<const Engine*> g_active{nullptr};

std::vector<EnginePtr>& pinned_engines() {
  static std::vector<EnginePtr>* pinned = new std::vector<EnginePtr>();
  return *pinned;  // leaked deliberately: outlives static-destruction order
}

const Engine* pin(EnginePtr engine) {
  std::lock_guard<std::mutex> lock(g_active_mutex);
  pinned_engines().push_back(std::move(engine));
  return pinned_engines().back().get();
}

}  // namespace

const Engine& active_engine() {
  const Engine* engine = g_active.load(std::memory_order_acquire);
  if (engine != nullptr) return *engine;
  // Lazy default: $RHW_ENGINE, else "simd". Double-checked so racing first
  // calls agree.
  std::lock_guard<std::mutex> lock(g_active_mutex);
  engine = g_active.load(std::memory_order_relaxed);
  if (engine == nullptr) {
    const char* env = std::getenv("RHW_ENGINE");
    pinned_engines().push_back(
        make_engine(env != nullptr && *env != '\0' ? env : "simd"));
    engine = pinned_engines().back().get();
    g_active.store(engine, std::memory_order_release);
  }
  return *engine;
}

void set_active_engine(EnginePtr engine) {
  if (engine == nullptr) {
    throw std::invalid_argument("set_active_engine: null engine");
  }
  g_active.store(pin(std::move(engine)), std::memory_order_release);
}

void set_active_engine(const std::string& spec) {
  set_active_engine(make_engine(spec));
}

EngineScope::EngineScope(EnginePtr engine)
    : prev_(g_active.load(std::memory_order_acquire)) {
  set_active_engine(std::move(engine));
}

EngineScope::EngineScope(const std::string& spec)
    : EngineScope(make_engine(spec)) {}

EngineScope::~EngineScope() {
  g_active.store(prev_, std::memory_order_release);
}

}  // namespace rhw::core
