// Tiny command-line flag parser for examples and benchmark harnesses.
//
// Supports --key=value, --key value, and boolean --flag forms. Unknown flags
// raise an error listing the registered options.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>
#include <vector>

#include "util/error.h"

namespace hios {

/// Declarative flag registry + parser.
class ArgParser {
 public:
  explicit ArgParser(std::string program_description)
      : description_(std::move(program_description)) {}

  /// Registers a flag with default value and help text. Returns *this for chaining.
  ArgParser& add_flag(const std::string& name, const std::string& default_value,
                      const std::string& help);

  /// Parses argv. On --help prints usage and returns false (caller exits 0).
  /// Throws hios::Error on unknown or malformed flags.
  bool parse(int argc, const char* const* argv);

  std::string get(const std::string& name) const;
  int64_t get_int(const std::string& name) const;
  /// get_int that also throws hios::Error when the value is outside [lo, hi].
  int64_t get_int(const std::string& name, int64_t lo, int64_t hi) const;
  double get_double(const std::string& name) const;
  bool get_bool(const std::string& name) const;

  /// Positional arguments left after flag parsing.
  const std::vector<std::string>& positional() const { return positional_; }

  std::string usage() const;

 private:
  struct Flag {
    std::string value;
    std::string default_value;
    std::string help;
  };

  std::string description_;
  std::map<std::string, Flag> flags_;
  std::vector<std::string> order_;
  std::vector<std::string> positional_;
};

/// Upper bound on the examples' --gpus flags, checked at flag parse so that
/// no model is profiled and no engine started for an absurd GPU count.
inline constexpr int64_t kMaxGpusFlag = 64;

/// Parses argv, exiting the process on a malformed flag: the error and the
/// usage go to stderr and the exit status is 2. `read` pulls the parsed
/// values out, so a bad value (e.g. --smoke=maybe) takes the same path.
/// Returns false when --help was printed (main should return 0).
template <typename ReadFn>
bool parse_flags_or_exit(ArgParser& args, int argc, char** argv, ReadFn&& read) {
  try {
    if (!args.parse(argc, argv)) return false;
    read();
    return true;
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n\n%s", e.what(), args.usage().c_str());
    std::exit(2);
  }
}

/// The top-level handler of the example mains (`int main(...) try { ... }
/// catch (const std::exception& e) { return exit_on_error(e); }`): prints
/// the error that escaped to stderr and returns exit status 2, the status
/// of a malformed flag.
inline int exit_on_error(const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 2;
}

}  // namespace hios
