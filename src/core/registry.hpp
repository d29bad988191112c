// The one string-keyed registry behind all six seams: hardware backends,
// attacks, defenses, compute engines, datasets and experiment presets.
//
// A seam supplies a small domain trait and its factory functions:
//
//   struct AttackDomain {
//     using Product = AttackPtr;
//     using Factory = std::function<AttackPtr(const core::SpecOptions&)>;
//     static constexpr const char* kDomain = "attack";  // spec-error label
//     static constexpr const char* kNoun = "attack";    // unknown-key noun
//     static void register_builtins(core::Registry<AttackDomain>& registry);
//   };
//   using AttackRegistry = core::Registry<AttackDomain>;
//
// register_builtins is defined in the seam's .cpp and runs once, when
// instance() first builds the registry. The trait is also the registry's
// base class, so a seam can put extra members on top of lookup() (the
// experiment seam's preset()/program()) without a second registry class.
// Each trait's default constructor is protected, so a trait only ever exists
// as the base of its registry.
//
// Error contract, identical across seams (tests/core/test_registry.cpp
// asserts the exact strings):
//
//   unknown attack 'cw'; registered: eot_pgd fgsm mifgsm pgd square
//   attack spec 'pgd:steps=7,alpha=abc': attack option alpha: bad number 'abc'
//
// Spec-grammar errors come from core/spec.hpp and already name the spec.
#pragma once

#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/spec.hpp"

namespace rhw::core {

template <class Domain>
class Registry : public Domain {
 public:
  using Product = typename Domain::Product;
  using Factory = typename Domain::Factory;

  // Process-wide registry, built-ins registered on first use.
  static Registry& instance() {
    static Registry registry;
    return registry;
  }

  // Registers (or replaces) a factory under `key`. The arguments construct
  // the domain's Factory (a callable for most seams; the experiment seam
  // takes a spec factory plus an optional program factory).
  template <class... Args>
  void add(const std::string& key, Args&&... args) {
    factories_.insert_or_assign(key, Factory(std::forward<Args>(args)...));
  }

  bool contains(const std::string& key) const {
    return factories_.count(key) > 0;
  }

  // Registered keys, sorted.
  std::vector<std::string> keys() const {
    std::vector<std::string> out;
    out.reserve(factories_.size());
    for (const auto& [key, factory] : factories_) out.push_back(key);
    return out;
  }

  // The factory registered under `key`. Throws std::invalid_argument naming
  // the key and listing every registered one.
  const Factory& lookup(const std::string& key) const {
    const auto it = factories_.find(key);
    if (it == factories_.end()) {
      std::string msg = std::string("unknown ") + Domain::kNoun + " '" + key +
                        "'; registered:";
      for (const auto& [name, factory] : factories_) {
        msg += ' ';
        msg += name;
      }
      throw std::invalid_argument(msg);
    }
    return it->second;
  }

  // Parses "<key>[:opt=v,...]", looks the key up and invokes its factory.
  // Factory errors (the offending option key/value) get the full spec as a
  // prefix, so errors surfacing far from the call site stay actionable.
  Product create(const std::string& spec) const {
    const ParsedSpec parsed = parse_spec(Domain::kDomain, spec);
    const Factory& factory = lookup(parsed.key);
    try {
      return factory(parsed.options);
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument(std::string(Domain::kDomain) + " spec '" +
                                  spec + "': " + e.what());
    }
  }

 private:
  Registry() { Domain::register_builtins(*this); }

  std::map<std::string, Factory> factories_;
};

}  // namespace rhw::core
