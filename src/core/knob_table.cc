#include "src/core/knob_table.h"

#include <algorithm>

#include "src/util/flags.h"

namespace litegpu::knob {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Top-level keys belong to the scenario itself.
std::string Display(const std::string& where) { return where.empty() ? "scenario" : where; }

std::string Number(double value) { return Json(value).Dump(0); }

}  // namespace

Bound AtLeast(double lo, const char* note) { return {lo, kInf, false, false, note}; }
Bound AtMost(double hi) { return {-kInf, hi, false, false, nullptr}; }
Bound Positive() { return {0.0, kInf, true, false, nullptr}; }
Bound Within(double lo, double hi, const char* note) { return {lo, hi, false, false, note}; }
Bound Fraction() { return {0.0, 1.0, true, false, nullptr}; }

std::string Label(const std::string& where, const std::string& key) {
  return where.empty() ? key : where + "." + key;
}

bool Fail(std::string* error, const std::string& message) {
  if (error != nullptr) {
    *error = message;
  }
  return false;
}

std::string FirstProblem(std::initializer_list<std::string> problems) {
  for (const std::string& problem : problems) {
    if (!problem.empty()) {
      return problem;
    }
  }
  return "";
}

// A present key with the wrong JSON type must not silently fall back.
bool TypeError(const Field& f, const std::string& where, const std::string& expected,
               std::string* error) {
  return Fail(error, "'" + std::string(f.key) + "' in " + Display(where) + " must be " + expected);
}

bool CheckKeys(const Json& obj, const std::vector<std::string>& allowed, const std::string& where,
               std::string* error) {
  for (const auto& member : obj.members()) {
    if (std::find(allowed.begin(), allowed.end(), member.first) == allowed.end()) {
      std::string message = "unknown key '" + member.first + "' in " + Display(where);
      std::string best = ClosestCandidate(member.first, allowed);
      if (!best.empty()) {
        message += " (did you mean '" + best + "'?)";
      }
      return Fail(error, message);
    }
  }
  return true;
}

std::string CheckNumber(const Field& f, double value, const std::string& where, bool finite) {
  const Bound& b = f.bound;
  if ((b.lo_open ? value > b.lo : value >= b.lo) && (b.hi_open ? value < b.hi : value <= b.hi) &&
      (!finite || std::isfinite(value))) {
    return "";
  }
  std::string rule;
  if (std::isfinite(b.lo) && std::isfinite(b.hi)) {
    rule = std::string("in ") + (b.lo_open ? "(" : "[") + Number(b.lo) + ", " + Number(b.hi) +
           (b.hi_open ? ")" : "]");
  } else {
    if (std::isfinite(b.lo)) {
      rule = b.lo == 0.0 && b.lo_open ? "positive" : (b.lo_open ? "> " : ">= ") + Number(b.lo);
    } else if (std::isfinite(b.hi)) {
      rule = (b.hi_open ? "< " : "<= ") + Number(b.hi);
    }
    if (finite) {
      rule += rule.empty() ? "finite" : " and finite";
    }
  }
  if (b.note != nullptr) {
    rule += std::string(" ") + b.note;
  }
  return Label(where, f.key) + " must be " + rule;
}

bool ReadNumber(const Field& f, const Json& value, const std::string& where, double& out,
                std::string* error) {
  if (value.type() != Json::Type::kNumber) {
    return TypeError(f, where, "a number", error);
  }
  if (!std::isfinite(value.AsDouble())) {
    return Fail(error, Label(where, f.key) + " must be finite");
  }
  out = value.AsDouble();
  return true;
}

bool ReadEnum(const Field& f, const Json& value, const std::string& where, size_t& out,
              std::string* error) {
  if (value.type() != Json::Type::kString) {
    return TypeError(f, where, "a string", error);
  }
  const std::vector<std::string>& names = f.names->names;
  const std::string name = value.AsString();
  auto it = std::find(names.begin(), names.end(), name);
  if (it != names.end()) {
    out = static_cast<size_t>(it - names.begin());
    return true;
  }
  std::string message = "unknown " + std::string(f.names->noun) + " '" + name + "' in " +
                        Display(where) + " (expected ";
  for (size_t i = 0; i < names.size(); ++i) {
    message += (i == 0 ? "" : "|") + names[i];
  }
  std::string best = ClosestCandidate(name, names);
  if (!best.empty()) {
    message += "; did you mean '" + best + "'?";
  }
  return Fail(error, message + ")");
}

bool Ops<std::vector<double>>::Read(const Field& f, const Json& value, const std::string& where,
                                    void* member, std::string* error) {
  if (!value.is_array()) {
    return TypeError(f, where, "an array of numbers", error);
  }
  std::vector<double> list;
  for (const Json& e : value.elements()) {
    if (e.type() != Json::Type::kNumber) {
      return TypeError(f, where, "an array of numbers", error);
    }
    list.emplace_back();
    if (!ReadNumber(f, e, where, list.back(), error)) {
      return false;
    }
  }
  As<std::vector<double>>(member) = std::move(list);
  return true;
}

Json Ops<std::vector<double>>::Write(const Field&, const void* member) {
  Json arr = Json::Array();
  for (double x : As<std::vector<double>>(member)) {
    arr.Append(x);
  }
  return arr;
}

std::string Ops<std::vector<double>>::Check(const Field& f, const void* member,
                                            const std::string& where) {
  for (double x : As<std::vector<double>>(member)) {
    if (std::string problem = CheckNumber(f, x, where, /*finite=*/true); !problem.empty()) {
      return problem;
    }
  }
  return "";
}

bool Ops<std::vector<std::string>>::Read(const Field& f, const Json& value,
                                         const std::string& where, void* member,
                                         std::string* error) {
  if (!value.is_array()) {
    return TypeError(f, where, "an array of names", error);
  }
  std::vector<std::string> names;
  for (const Json& e : value.elements()) {
    if (e.type() != Json::Type::kString) {
      return TypeError(f, where, "an array of names", error);
    }
    names.push_back(e.AsString());
  }
  As<std::vector<std::string>>(member) = std::move(names);
  return true;
}

Json Ops<std::vector<std::string>>::Write(const Field&, const void* member) {
  Json arr = Json::Array();
  for (const std::string& name : As<std::vector<std::string>>(member)) {
    arr.Append(name);
  }
  return arr;
}

bool ReadFields(const Block& block, const Json& obj, const std::string& where, void* out,
                std::string* error) {
  for (const Field& f : block.fields) {
    void* member = f.at(out);
    if (f.key == nullptr) {
      if (!ReadFields(*f.block, obj, where, member, error)) {
        return false;
      }
    } else if (const Json* value = obj.Find(f.key)) {
      if (!f.codec->read(f, *value, where, member, error)) {
        return false;
      }
    }
  }
  return true;
}

bool ReadBlock(const Block& block, const Json& obj, const std::string& where, void* out,
               std::string* error) {
  if (!obj.is_object()) {
    return Fail(error, Display(where) + " must be an object");
  }
  if (!CheckKeys(obj, block.keys, where, error)) {
    return false;
  }
  if (block.prepare != nullptr) {
    block.prepare(out);
  }
  return ReadFields(block, obj, where, out, error);
}

namespace {

const void* Member(const Field& f, const void* block) { return f.at(const_cast<void*>(block)); }

void WriteFields(const Block& block, const void* obj, Json& out) {
  for (const Field& f : block.fields) {
    const void* member = Member(f, obj);
    if (f.key == nullptr) {
      WriteFields(*f.block, member, out);
    } else if ((f.when == nullptr || f.when(obj)) &&
               (f.emit == Emit::kAlways ||
                !f.codec->same(f, member, Member(f, block.defaults)))) {
      out.Set(f.key, f.codec->write(f, member));
    }
  }
}

}  // namespace

Json WriteBlock(const Block& block, const void* obj) {
  Json out = Json::Object();
  WriteFields(block, obj, out);
  return out;
}

bool SameBlock(const Block& block, const void* a, const void* b) {
  for (const Field& f : block.fields) {
    const void* x = Member(f, a);
    const void* y = Member(f, b);
    if (!(f.key == nullptr ? SameBlock(*f.block, x, y) : f.codec->same(f, x, y))) {
      return false;
    }
  }
  return true;
}

std::string CheckFields(const Block& block, const void* obj, const std::string& where) {
  for (const Field& f : block.fields) {
    const void* member = Member(f, obj);
    std::string problem =
        f.key == nullptr ? CheckFields(*f.block, member, where) : f.codec->check(f, member, where);
    if (!problem.empty()) {
      return problem;
    }
  }
  return "";
}

std::string KeyOf(const Block& block, const void* obj, const void* member) {
  for (const Field& f : block.fields) {
    const void* at = Member(f, obj);
    if (f.key == nullptr) {
      if (std::string key = KeyOf(*f.block, at, member); !key.empty()) {
        return key;
      }
    } else if (at == member) {
      return f.key;
    }
  }
  return "";
}

}  // namespace litegpu::knob
