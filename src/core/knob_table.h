// Knob tables: the declarative layer behind scenario files.
//
// Each knob block (workload, serve, faults, fleet candidates, ...) is one
// table of Field rows. A row holds the JSON key, the struct member the key
// maps to, a Codec picked from the member's C++ type (number, int, uint64,
// bool, string, enum, number list, name list, nested block, array of
// blocks), an emit rule and a bound. One generic reader, writer, default
// test and bound checker walk the tables, so adding a knob is one struct
// field, one table row and one doc line. src/core/scenario.cc holds the
// tables and the hand-written cross-field rules.
//
// The reader is strict: unknown keys fail with a did-you-mean hint,
// mistyped values fail, number knobs must be finite, and integer knobs must
// be exact integers in range. Absent keys keep the target's current value.

#pragma once

#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include "src/util/json.h"

namespace litegpu::knob {

struct Field;
struct Block;

// Numeric bounds; an infinite end is unbounded. Number knobs must also be
// finite.
struct Bound {
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  bool lo_open = false;
  bool hi_open = false;
  const char* note = nullptr;  // appended to the message, e.g. "(0 = auto-size)"
};

Bound AtLeast(double lo, const char* note = nullptr);
Bound AtMost(double hi);
Bound Positive();
Bound Within(double lo, double hi, const char* note = nullptr);
Bound Fraction();  // (0, 1]

// An enum's JSON spellings, indexed by value, and the noun its errors use.
struct EnumNames {
  const char* noun;
  std::vector<std::string> names;
};

template <size_t N>
EnumNames NamesOf(const char* noun, const char* const (&names)[N]) {
  return {noun, std::vector<std::string>(std::begin(names), std::end(names))};
}

// For enums whose names live with their own ToString; values run 0..count-1.
template <typename E>
EnumNames NamesOf(const char* noun, int count) {
  EnumNames names{noun, {}};
  for (int i = 0; i < count; ++i) {
    names.names.push_back(ToString(static_cast<E>(i)));
  }
  return names;
}

// How one member type is read from JSON (`where` is the enclosing block's
// label, "" at the top level), written back, compared, and checked against
// its row's bound ("" when it holds).
struct Codec {
  bool (*read)(const Field& f, const Json& value, const std::string& where, void* member,
               std::string* error);
  Json (*write)(const Field& f, const void* member);
  bool (*same)(const Field& f, const void* a, const void* b);
  std::string (*check)(const Field& f, const void* member, const std::string& where);
};

enum class Emit { kAlways, kUnlessDefault };

struct Field {
  const char* key = nullptr;           // null: `block`'s rows are spliced in here
  void* (*at)(void* block) = nullptr;  // this row's member within its block
  const Codec* codec = nullptr;
  Bound bound;
  Emit emit = Emit::kAlways;
  bool (*when)(const void* block) = nullptr;  // extra emit gate; null = none
  const EnumNames* names = nullptr;           // enum rows
  const Block* block = nullptr;               // nested blocks, block arrays, splices

  Field UnlessDefault() const {
    Field f = *this;
    f.emit = Emit::kUnlessDefault;
    return f;
  }
  Field When(bool (*gate)(const void* block)) const {
    Field f = *this;
    f.when = gate;
    return f;
  }
};

struct Block {
  std::vector<Field> fields;
  const void* defaults = nullptr;    // a default-constructed instance
  const char* noun = nullptr;        // array entries: "an array of <noun> objects"
  void (*prepare)(void*) = nullptr;  // runs on the target before a present block is read
  std::vector<std::string> keys;     // every key, spliced rows included
};

template <typename T>
Block MakeBlock(std::vector<Field> fields, const char* noun = nullptr,
                void (*prepare)(void*) = nullptr) {
  static const T defaults{};
  Block block{std::move(fields), &defaults, noun, prepare, {}};
  for (const Field& f : block.fields) {
    if (f.key != nullptr) {
      block.keys.push_back(f.key);
    } else {
      block.keys.insert(block.keys.end(), f.block->keys.begin(), f.block->keys.end());
    }
  }
  return block;
}

// --- the generic walkers ---

// Reads `obj` into the block object `out`: "<where> must be an object" for
// a non-object, unknown keys rejected, then every present row.
bool ReadBlock(const Block& block, const Json& obj, const std::string& where, void* out,
               std::string* error);
// The rows alone: no object or key check.
bool ReadFields(const Block& block, const Json& obj, const std::string& where, void* out,
                std::string* error);
Json WriteBlock(const Block& block, const void* obj);
bool SameBlock(const Block& block, const void* a, const void* b);
// The first bound violation among the block's own rows, spliced rows
// included; nested blocks are left to their owners' validators.
std::string CheckFields(const Block& block, const void* obj, const std::string& where);
// The JSON key of `member`, a field of the block object `obj` ("" if none).
std::string KeyOf(const Block& block, const void* obj, const void* member);

// Fails on keys outside `allowed` with a did-you-mean hint, so typos
// surface instead of silently falling back to defaults.
bool CheckKeys(const Json& obj, const std::vector<std::string>& allowed, const std::string& where,
               std::string* error);

// "<where>.<key>"; top-level keys have no prefix.
std::string Label(const std::string& where, const std::string& key);
// Sets `*error` (when non-null) and returns false.
bool Fail(std::string* error, const std::string& message);
// The first non-empty problem, in order.
std::string FirstProblem(std::initializer_list<std::string> problems);

// Names a T block's knobs in messages by member pointer, so keys are spelled
// only in the tables: Key(&T::x) is x's key, Path(&T::x) "<where>.<key>".
template <typename T>
class Namer {
 public:
  Namer(const Block& block, std::string where) : block_(block), where_(std::move(where)) {}

  template <typename C, typename M>
  std::string Key(M C::*member) const {
    const T* defaults = static_cast<const T*>(block_.defaults);
    return KeyOf(block_, defaults, &(defaults->*member));
  }
  template <typename C, typename M>
  std::string Path(M C::*member) const {
    return Label(where_, Key(member));
  }
  const std::string& where() const { return where_; }

 private:
  const Block& block_;
  std::string where_;
};

// --- codecs, one per member type ---

template <typename T>
const T& As(const void* member) {
  return *static_cast<const T*>(member);
}
template <typename T>
T& As(void* member) {
  return *static_cast<T*>(member);
}

bool TypeError(const Field& f, const std::string& where, const std::string& expected,
               std::string* error);
bool ReadNumber(const Field& f, const Json& value, const std::string& where, double& out,
                std::string* error);
bool ReadEnum(const Field& f, const Json& value, const std::string& where, size_t& out,
              std::string* error);
std::string CheckNumber(const Field& f, double value, const std::string& where, bool finite);

// Scalars compare with ==, write as themselves and carry no bound.
template <typename T>
struct ValueOps {
  static Json Write(const Field&, const void* member) { return Json(As<T>(member)); }
  static bool Same(const Field&, const void* a, const void* b) { return As<T>(a) == As<T>(b); }
  static std::string Check(const Field&, const void*, const std::string&) { return ""; }
};

// A nested knob block, read and written through the row's `block` table.
template <typename T, typename = void>
struct Ops {
  static bool Read(const Field& f, const Json& value, const std::string& where, void* member,
                   std::string* error) {
    return ReadBlock(*f.block, value, Label(where, f.key), member, error);
  }
  static Json Write(const Field& f, const void* member) { return WriteBlock(*f.block, member); }
  static bool Same(const Field& f, const void* a, const void* b) {
    return SameBlock(*f.block, a, b);
  }
  static std::string Check(const Field&, const void*, const std::string&) { return ""; }
};

template <>
struct Ops<double> : ValueOps<double> {
  static bool Read(const Field& f, const Json& value, const std::string& where, void* member,
                   std::string* error) {
    return ReadNumber(f, value, where, As<double>(member), error);
  }
  static std::string Check(const Field& f, const void* member, const std::string& where) {
    return CheckNumber(f, As<double>(member), where, /*finite=*/true);
  }
};

// Exact integers only: no rounding, no wrap-around. The exclusive upper end
// (max + 1) is a power of two, exact as a double.
template <typename T>
struct IntegerOps : ValueOps<T> {
  static bool Read(const Field& f, const Json& value, const std::string& where, void* member,
                   std::string* error) {
    if (value.type() != Json::Type::kNumber) {
      return TypeError(f, where, "a number", error);
    }
    constexpr double lo = static_cast<double>(std::numeric_limits<T>::min());
    constexpr double hi = static_cast<double>(std::numeric_limits<T>::max()) + 1.0;
    double x = value.AsDouble();
    if (!(x >= lo && x < hi) || x != std::trunc(x)) {
      return Fail(error, Label(where, f.key) + " must be an integer in [" +
                             std::to_string(std::numeric_limits<T>::min()) + ", " +
                             std::to_string(std::numeric_limits<T>::max()) + "]");
    }
    As<T>(member) = static_cast<T>(x);
    return true;
  }
  static std::string Check(const Field& f, const void* member, const std::string& where) {
    return CheckNumber(f, static_cast<double>(As<T>(member)), where, /*finite=*/false);
  }
};

template <>
struct Ops<int> : IntegerOps<int> {};
template <>
struct Ops<uint64_t> : IntegerOps<uint64_t> {};

template <>
struct Ops<bool> : ValueOps<bool> {
  static bool Read(const Field& f, const Json& value, const std::string& where, void* member,
                   std::string* error) {
    if (value.type() != Json::Type::kBool) {
      return TypeError(f, where, "true or false", error);
    }
    As<bool>(member) = value.AsBool();
    return true;
  }
};

template <>
struct Ops<std::string> : ValueOps<std::string> {
  static bool Read(const Field& f, const Json& value, const std::string& where, void* member,
                   std::string* error) {
    if (value.type() != Json::Type::kString) {
      return TypeError(f, where, "a string", error);
    }
    As<std::string>(member) = value.AsString();
    return true;
  }
};

// Number lists: every entry finite and inside the row's bound.
template <>
struct Ops<std::vector<double>> : ValueOps<std::vector<double>> {
  static bool Read(const Field& f, const Json& value, const std::string& where, void* member,
                   std::string* error);
  static Json Write(const Field& f, const void* member);
  static std::string Check(const Field& f, const void* member, const std::string& where);
};

// Catalog name lists (models, gpus).
template <>
struct Ops<std::vector<std::string>> : ValueOps<std::vector<std::string>> {
  static bool Read(const Field& f, const Json& value, const std::string& where, void* member,
                   std::string* error);
  static Json Write(const Field& f, const void* member);
};

// Enums are strings from the row's names table; an unknown spelling lists
// the choices and suggests the closest one.
template <typename E>
struct Ops<E, std::enable_if_t<std::is_enum_v<E>>> : ValueOps<E> {
  static bool Read(const Field& f, const Json& value, const std::string& where, void* member,
                   std::string* error) {
    size_t index = 0;
    if (!ReadEnum(f, value, where, index, error)) {
      return false;
    }
    As<E>(member) = static_cast<E>(index);
    return true;
  }
  static Json Write(const Field& f, const void* member) {
    return Json(f.names->names[static_cast<size_t>(As<E>(member))]);
  }
};

template <typename T>
bool ReadBlockList(const Block& block, const Json& arr, const std::string& label,
                   std::vector<T>& out, std::string* error) {
  for (size_t i = 0; i < arr.size(); ++i) {
    T entry;
    if (!ReadBlock(block, arr.elements()[i], label + "[" + std::to_string(i) + "]", &entry,
                   error)) {
      return false;
    }
    out.push_back(std::move(entry));
  }
  return true;
}

// Arrays of knob blocks (request classes, fleet candidates).
template <typename T>
struct Ops<std::vector<T>, void> {
  static bool Read(const Field& f, const Json& value, const std::string& where, void* member,
                   std::string* error) {
    if (!value.is_array()) {
      return TypeError(f, where, "an array of " + std::string(f.block->noun) + " objects", error);
    }
    return ReadBlockList(*f.block, value, Label(where, f.key), As<std::vector<T>>(member), error);
  }
  static Json Write(const Field& f, const void* member) {
    Json arr = Json::Array();
    for (const T& entry : As<std::vector<T>>(member)) {
      arr.Append(WriteBlock(*f.block, &entry));
    }
    return arr;
  }
  static bool Same(const Field& f, const void* a, const void* b) {
    const std::vector<T>& x = As<std::vector<T>>(a);
    const std::vector<T>& y = As<std::vector<T>>(b);
    for (size_t i = 0; i < x.size() && x.size() == y.size(); ++i) {
      if (!SameBlock(*f.block, &x[i], &y[i])) {
        return false;
      }
    }
    return x.size() == y.size();
  }
  static std::string Check(const Field&, const void*, const std::string&) { return ""; }
};

// --- rows ---

template <typename M>
struct MemberTraits;
template <typename C, typename T>
struct MemberTraits<T C::*> {
  using Owner = C;
  using Type = T;
};

template <auto M>
void* At(void* block) {
  return &(static_cast<typename MemberTraits<decltype(M)>::Owner*>(block)->*M);
}

template <typename T>
const Codec* CodecFor() {
  static const Codec codec{&Ops<T>::Read, &Ops<T>::Write, &Ops<T>::Same, &Ops<T>::Check};
  return &codec;
}

// A row for member M; its codec follows M's type.
template <auto M>
Field Row(const char* key, Bound bound = {}) {
  Field f;
  f.key = key;
  f.at = &At<M>;
  f.codec = CodecFor<typename MemberTraits<decltype(M)>::Type>();
  f.bound = bound;
  return f;
}

template <auto M>
Field EnumRow(const char* key, const EnumNames& names) {
  Field f = Row<M>(key);
  f.names = &names;
  return f;
}

// A nested block, or an array of them, read and written with `block`.
template <auto M>
Field BlockRow(const char* key, const Block& block) {
  Field f = Row<M>(key);
  f.block = &block;
  return f;
}

// The rows of a base struct's table, read and written in place.
template <typename Derived, typename Base>
Field Splice(const Block& base) {
  Field f;
  f.at = [](void* block) -> void* { return static_cast<Base*>(static_cast<Derived*>(block)); };
  f.block = &base;
  return f;
}

}  // namespace litegpu::knob
