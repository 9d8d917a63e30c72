#include "util/args.h"

#include <cstdio>
#include <sstream>

#include "util/error.h"

namespace hios {

ArgParser& ArgParser::add_flag(const std::string& name, const std::string& default_value,
                               const std::string& help) {
  HIOS_CHECK(!flags_.count(name), "duplicate flag --" << name);
  flags_[name] = Flag{default_value, default_value, help};
  order_.push_back(name);
  return *this;
}

bool ArgParser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(usage().c_str(), stdout);
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    std::string name = arg.substr(2);
    std::string value;
    bool has_value = false;
    if (auto eq = name.find('='); eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
      has_value = true;
    }
    auto it = flags_.find(name);
    HIOS_CHECK(it != flags_.end(), "unknown flag --" << name << " (--help lists the flags)");
    if (!has_value) {
      // Boolean flags may omit the value; others take the next argv entry.
      if (it->second.default_value == "true" || it->second.default_value == "false") {
        value = "true";
      } else {
        HIOS_CHECK(i + 1 < argc, "flag --" << name << " expects a value");
        value = argv[++i];
      }
    }
    it->second.value = value;
  }
  return true;
}

std::string ArgParser::get(const std::string& name) const {
  auto it = flags_.find(name);
  HIOS_CHECK(it != flags_.end(), "flag --" << name << " was never registered");
  return it->second.value;
}

int64_t ArgParser::get_int(const std::string& name) const {
  const std::string v = get(name);
  try {
    std::size_t used = 0;
    const int64_t parsed = std::stoll(v, &used);
    if (used == v.size()) return parsed;  // no trailing text, e.g. "2abc"
  } catch (const std::exception&) {
  }
  throw Error("flag --" + name + " expects an integer, got '" + v + "'");
}

int64_t ArgParser::get_int(const std::string& name, int64_t lo, int64_t hi) const {
  const int64_t v = get_int(name);
  if (v < lo || v > hi) {
    throw Error("flag --" + name + " must be in [" + std::to_string(lo) + ", " +
                std::to_string(hi) + "], got " + std::to_string(v));
  }
  return v;
}

double ArgParser::get_double(const std::string& name) const {
  const std::string v = get(name);
  try {
    std::size_t used = 0;
    const double parsed = std::stod(v, &used);
    if (used == v.size()) return parsed;
  } catch (const std::exception&) {
  }
  throw Error("flag --" + name + " expects a number, got '" + v + "'");
}

bool ArgParser::get_bool(const std::string& name) const {
  const std::string v = get(name);
  if (v == "true" || v == "1" || v == "yes") return true;
  if (v == "false" || v == "0" || v == "no") return false;
  throw Error("flag --" + name + " expects a boolean, got '" + v + "'");
}

std::string ArgParser::usage() const {
  std::ostringstream os;
  os << description_ << "\n\nFlags:\n";
  for (const auto& name : order_) {
    const Flag& flag = flags_.at(name);
    os << "  --" << name << " (default: " << flag.default_value << ")\n      "
       << flag.help << "\n";
  }
  return os.str();
}

}  // namespace hios
