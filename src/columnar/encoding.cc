#include "columnar/encoding.h"

#include <cstring>
#include <functional>
#include <optional>
#include <string_view>

#include "util/hll_sketch.h"  // Mix64
#include "util/status.h"

namespace ssql {

namespace {

enum class Bank : uint8_t { kInt, kDouble, kString, kBoxed };

Bank BankFor(const DataType& t) {
  switch (t.id()) {
    case TypeId::kBoolean:
    case TypeId::kInt32:
    case TypeId::kInt64:
    case TypeId::kDate:
    case TypeId::kTimestamp:
    case TypeId::kDecimal:
      return Bank::kInt;
    case TypeId::kDouble:
      return Bank::kDouble;
    case TypeId::kString:
      return Bank::kString;
    default:
      return Bank::kBoxed;
  }
}

// --- little byte writer/reader -------------------------------------------

void PutU8(std::vector<uint8_t>* out, uint8_t v) { out->push_back(v); }
void PutU32(std::vector<uint8_t>* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<uint8_t>(v >> (8 * i)));
}
void PutI64(std::vector<uint8_t>* out, int64_t v) {
  uint64_t u = static_cast<uint64_t>(v);
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<uint8_t>(u >> (8 * i)));
}
void PutF64(std::vector<uint8_t>* out, double v) {
  uint64_t u;
  std::memcpy(&u, &v, 8);
  PutI64(out, static_cast<int64_t>(u));
}
void PutStr(std::vector<uint8_t>* out, const std::string& s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->insert(out->end(), s.begin(), s.end());
}

struct Reader {
  const uint8_t* p;
  size_t n;
  size_t pos = 0;

  /// Every read is bounds-checked: a truncated buffer (file cut mid-write,
  /// short read) must surface as IoError, never as out-of-bounds indexing.
  void Need(size_t k) const {
    if (pos > n || n - pos < k) {
      throw IoError("truncated columnar data (need " + std::to_string(k) +
                    " bytes at offset " + std::to_string(pos) + ", have " +
                    std::to_string(pos > n ? 0 : n - pos) + ")");
    }
  }

  uint8_t U8() {
    Need(1);
    return p[pos++];
  }
  uint32_t U32() {
    Need(4);
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(p[pos++]) << (8 * i);
    return v;
  }
  int64_t I64() {
    Need(8);
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(p[pos++]) << (8 * i);
    return static_cast<int64_t>(v);
  }
  double F64() {
    uint64_t u = static_cast<uint64_t>(I64());
    double d;
    std::memcpy(&d, &u, 8);
    return d;
  }
  std::string Str() {
    uint32_t len = U32();
    Need(len);
    std::string s(reinterpret_cast<const char*>(p + pos), len);
    pos += len;
    return s;
  }
};

// --- per-bank generic value IO --------------------------------------------

Value ReadBankValue(Reader* r, Bank bank, const DataTypePtr& type) {
  switch (bank) {
    case Bank::kInt: {
      int64_t v = r->I64();
      switch (type->id()) {
        case TypeId::kBoolean:
          return Value(v != 0);
        case TypeId::kInt32:
          return Value(static_cast<int32_t>(v));
        case TypeId::kDate:
          return Value(DateValue{static_cast<int32_t>(v)});
        case TypeId::kTimestamp:
          return Value(TimestampValue{v});
        case TypeId::kDecimal: {
          const auto& dt = AsDecimal(*type);
          return Value(Decimal(v, dt.precision(), dt.scale()));
        }
        default:
          return Value(v);
      }
    }
    case Bank::kDouble:
      return Value(r->F64());
    case Bank::kString:
      return Value(r->Str());
    case Bank::kBoxed:
      return Value::Null();
  }
  return Value::Null();
}

/// Reads one non-null value of `bank` and appends it unboxed, normalized as
/// ReadBankValue + ColumnVector::Append would store it.
void AppendBankValue(Reader* r, Bank bank, const DataType& type,
                     ColumnVector* out) {
  switch (bank) {
    case Bank::kInt: {
      int64_t v = r->I64();
      switch (type.id()) {
        case TypeId::kBoolean:
          v = v != 0;
          break;
        case TypeId::kInt32:
        case TypeId::kDate:
          v = static_cast<int32_t>(v);
          break;
        default:
          break;
      }
      out->AppendInt64(v);
      break;
    }
    case Bank::kDouble:
      out->AppendDouble(r->F64());
      break;
    case Bank::kString:
      out->AppendString(r->Str());
      break;
    case Bank::kBoxed:
      out->AppendNull();
      break;
  }
}

/// Appends a copy of `src`'s non-null slot `i` to `out` (same type).
void AppendSlot(const ColumnVector& src, size_t i, Bank bank, ColumnVector* out) {
  switch (bank) {
    case Bank::kInt:
      out->AppendInt64(src.GetInt64(i));
      break;
    case Bank::kDouble:
      out->AppendDouble(src.GetDouble(i));
      break;
    case Bank::kString:
      out->AppendString(src.GetString(i));
      break;
    case Bank::kBoxed:
      out->Append(src.GetValue(i));
      break;
  }
}

// --- typed single-pass encoder --------------------------------------------
//
// Each chunk is encoded in two steps over its raw banks, with no Value
// boxing and no per-row key strings: Analyze makes one pass that folds the
// zone map, sizes the plain / RLE / dictionary payloads exactly and (when
// asked) builds the first-occurrence dictionary; Emit then writes only the
// chosen scheme into a buffer of exactly that size.

void PutLE32(uint8_t** p, uint32_t v) {
  for (int i = 0; i < 4; ++i) *(*p)++ = static_cast<uint8_t>(v >> (8 * i));
}
void PutLE64(uint8_t** p, uint64_t v) {
  for (int i = 0; i < 8; ++i) *(*p)++ = static_cast<uint8_t>(v >> (8 * i));
}

/// Typed views of one column's value bank. `Key` orders non-null values as
/// Value::Compare orders the boxed values; `Same` is the bitwise equality
/// RLE runs and dictionary entries use (so NaN payloads and -0.0 stay
/// distinct from their look-alikes); `Bytes` and `Put` give a non-null
/// value's payload size and write it.
struct IntSlots {
  const int64_t* v;
  TypeId id;

  int64_t Key(size_t i) const {
    switch (id) {
      case TypeId::kBoolean:
        return v[i] != 0;
      case TypeId::kInt32:
      case TypeId::kDate:
        return static_cast<int32_t>(v[i]);
      default:
        return v[i];
    }
  }
  bool Same(size_t i, size_t j) const { return v[i] == v[j]; }
  uint64_t Hash(size_t i) const { return Mix64(static_cast<uint64_t>(v[i])); }
  size_t Bytes(size_t) const { return 8; }
  void Put(size_t i, uint8_t** p) const {
    PutLE64(p, static_cast<uint64_t>(v[i]));
  }
};

/// Decimals share the int bank but Value::Compare orders them by their
/// double value (Value::AsDouble), which can tie distinct unscaled values.
struct DecimalSlots : IntSlots {
  int precision;
  int scale;

  double Key(size_t i) const {
    return Decimal(v[i], precision, scale).ToDouble();
  }
};

struct DoubleSlots {
  const double* v;

  static uint64_t Bits(double d) {
    uint64_t u;
    std::memcpy(&u, &d, 8);
    return u;
  }
  double Key(size_t i) const { return v[i]; }
  bool Same(size_t i, size_t j) const { return Bits(v[i]) == Bits(v[j]); }
  uint64_t Hash(size_t i) const { return Mix64(Bits(v[i])); }
  size_t Bytes(size_t) const { return 8; }
  void Put(size_t i, uint8_t** p) const { PutLE64(p, Bits(v[i])); }
};

struct StringSlots {
  const std::string* v;

  std::string_view Key(size_t i) const { return v[i]; }
  bool Same(size_t i, size_t j) const { return v[i] == v[j]; }
  uint64_t Hash(size_t i) const {
    return Mix64(std::hash<std::string_view>()(v[i]));
  }
  size_t Bytes(size_t i) const { return 4 + v[i].size(); }
  void Put(size_t i, uint8_t** p) const {
    PutLE32(p, static_cast<uint32_t>(v[i].size()));
    std::memcpy(*p, v[i].data(), v[i].size());
    *p += v[i].size();
  }
};

/// Calls `fn` with the typed view of an atomic column's bank.
template <typename Fn>
EncodedColumn WithSlots(const ColumnVector& column, const Fn& fn) {
  const DataType& type = *column.type();
  switch (BankFor(type)) {
    case Bank::kInt:
      if (type.id() == TypeId::kDecimal) {
        const auto& dt = AsDecimal(type);
        return fn(DecimalSlots{{column.ints().data(), type.id()},
                               dt.precision(),
                               dt.scale()});
      }
      return fn(IntSlots{column.ints().data(), type.id()});
    case Bank::kDouble:
      return fn(DoubleSlots{column.doubles().data()});
    case Bank::kString:
      return fn(StringSlots{column.strings().data()});
    case Bank::kBoxed:
      break;
  }
  throw InvalidArgumentError("no typed bank for column type " +
                             type.ToString());
}

constexpr uint32_t kNullCode = 0xFFFFFFFFu;

/// What Analyze learns about one chunk.
struct ChunkModel {
  bool has_nulls = false;
  bool any_value = false;  // some row is non-null; min_row/max_row valid
  size_t min_row = 0;
  size_t max_row = 0;
  // Exact payload sizes; dict_bytes only when the dictionary was built.
  size_t plain_bytes = 0;
  size_t rle_bytes = 0;
  size_t dict_bytes = 0;
  std::vector<uint32_t> entries;  // dictionary index -> first row
  std::vector<uint32_t> codes;    // row -> dictionary index, or kNullCode

  /// The smallest scheme; ties go plain, then RLE, then dictionary. Needs
  /// the model built with the dictionary.
  ColumnEncoding Cheapest() const {
    ColumnEncoding best = ColumnEncoding::kPlain;
    size_t best_bytes = plain_bytes;
    if (rle_bytes < best_bytes) {
      best = ColumnEncoding::kRunLength;
      best_bytes = rle_bytes;
    }
    if (dict_bytes < best_bytes) best = ColumnEncoding::kDictionary;
    return best;
  }
};

/// Open-addressing intern table mapping a chunk's distinct values (by
/// Slots::Same) to dictionary indices in first-occurrence order. A slot
/// packs the hash's high half with index + 1 (0 = empty), so most probes
/// settle without touching the bank.
template <typename Slots>
class DictionaryBuilder {
 public:
  DictionaryBuilder(const Slots& slots, size_t rows) : slots_(slots) {
    size_t capacity = 16;
    while (capacity < 2 * rows) capacity <<= 1;
    table_.assign(capacity, 0);
    mask_ = capacity - 1;
  }

  /// Returns the index of row `row`'s value, appending it to `entries` when
  /// first seen.
  uint32_t Intern(size_t row, std::vector<uint32_t>* entries) {
    const uint64_t hash = slots_.Hash(row);
    const uint64_t tag = hash >> 32;
    for (size_t pos = hash & mask_;; pos = (pos + 1) & mask_) {
      const uint64_t slot = table_[pos];
      if (slot == 0) {
        const uint32_t index = static_cast<uint32_t>(entries->size());
        entries->push_back(static_cast<uint32_t>(row));
        table_[pos] = (tag << 32) | (uint64_t{index} + 1);
        return index;
      }
      const uint32_t index = static_cast<uint32_t>(slot) - 1;
      if ((slot >> 32) == tag && slots_.Same(row, (*entries)[index])) {
        return index;
      }
    }
  }

 private:
  const Slots& slots_;
  std::vector<uint64_t> table_;
  size_t mask_ = 0;
};

/// The single pass over a chunk: zone map (first row wins ties, as in a
/// fold over Value::Compare), exact plain and RLE sizes, and — when
/// `with_dictionary` — the dictionary and its exact size.
template <typename Slots>
ChunkModel Analyze(const Slots& slots, const ColumnVector& column,
                   bool with_dictionary) {
  const size_t n = column.size();
  const uint8_t* nulls = column.nulls().data();
  ChunkModel m;
  std::optional<DictionaryBuilder<Slots>> dict;
  if (with_dictionary) {
    dict.emplace(slots, n);
    m.codes.resize(n);
  }
  decltype(slots.Key(0)) lo{}, hi{};
  size_t dict_value_bytes = 0;
  for (size_t i = 0; i < n; ++i) {
    const bool null = nulls[i] != 0;
    const size_t bytes = null ? 0 : slots.Bytes(i);
    m.plain_bytes += 1 + bytes;
    const bool run_start = i == 0 || null != (nulls[i - 1] != 0) ||
                           (!null && !slots.Same(i, i - 1));
    if (run_start) m.rle_bytes += 5 + bytes;
    if (null) {
      m.has_nulls = true;
      if (dict) m.codes[i] = kNullCode;
      continue;
    }
    const auto key = slots.Key(i);
    if (!m.any_value) {
      m.any_value = true;
      lo = hi = key;
      m.min_row = m.max_row = i;
    } else {
      if (key < lo) {
        lo = key;
        m.min_row = i;
      }
      if (key > hi) {
        hi = key;
        m.max_row = i;
      }
    }
    if (dict) {
      const size_t distinct = m.entries.size();
      m.codes[i] = dict->Intern(i, &m.entries);
      if (m.entries.size() != distinct) dict_value_bytes += bytes;
    }
  }
  if (with_dictionary) m.dict_bytes = 4 + dict_value_bytes + 4 * n;
  return m;
}

/// Writes `scheme`'s payload for a modelled chunk; the one emitter behind
/// both EncodeColumn and EncodeColumnAs. kDictionary needs a model built
/// with the dictionary.
template <typename Slots>
EncodedColumn Emit(const Slots& slots, const ColumnVector& column,
                   ColumnEncoding scheme, const ChunkModel& m) {
  EncodedColumn out;
  out.type = column.type();
  out.num_rows = static_cast<uint32_t>(column.size());
  out.encoding = scheme;
  out.has_nulls = m.has_nulls;
  if (m.any_value) {
    out.min = column.GetValue(m.min_row);
    out.max = column.GetValue(m.max_row);
  }
  const size_t n = column.size();
  const uint8_t* nulls = column.nulls().data();
  switch (scheme) {
    case ColumnEncoding::kPlain: {
      out.data.resize(m.plain_bytes);
      uint8_t* p = out.data.data();
      for (size_t i = 0; i < n; ++i) {
        *p++ = nulls[i] != 0 ? 1 : 0;
        if (nulls[i] == 0) slots.Put(i, &p);
      }
      break;
    }
    case ColumnEncoding::kRunLength: {
      out.data.resize(m.rle_bytes);
      uint8_t* p = out.data.data();
      size_t i = 0;
      while (i < n) {
        const bool null = nulls[i] != 0;
        size_t j = i + 1;
        while (j < n && (nulls[j] != 0) == null &&
               (null || slots.Same(j, i))) {
          ++j;
        }
        PutLE32(&p, static_cast<uint32_t>(j - i));
        *p++ = null ? 1 : 0;
        if (!null) slots.Put(i, &p);
        i = j;
      }
      break;
    }
    case ColumnEncoding::kDictionary: {
      out.data.resize(m.dict_bytes);
      uint8_t* p = out.data.data();
      PutLE32(&p, static_cast<uint32_t>(m.entries.size()));
      for (uint32_t row : m.entries) slots.Put(row, &p);
      for (uint32_t code : m.codes) PutLE32(&p, code);
      break;
    }
    case ColumnEncoding::kBoxed:
      break;  // EncodeBoxed
  }
  return out;
}

/// Boxed payload (complex-typed columns), zone map folded over
/// Value::Compare (which leaves complex values unordered).
EncodedColumn EncodeBoxed(const ColumnVector& column) {
  EncodedColumn out;
  out.type = column.type();
  out.num_rows = static_cast<uint32_t>(column.size());
  out.encoding = ColumnEncoding::kBoxed;
  out.boxed.reserve(column.size());
  for (size_t i = 0; i < column.size(); ++i) {
    Value v = column.GetValue(i);
    if (column.IsNull(i)) {
      out.has_nulls = true;
    } else {
      if (!out.min || v.Compare(*out.min) < 0) out.min = v;
      if (!out.max || v.Compare(*out.max) > 0) out.max = v;
    }
    out.boxed.push_back(std::move(v));
  }
  return out;
}

}  // namespace
size_t EncodedColumn::MemoryBytes() const {
  size_t bytes = data.capacity() + sizeof(*this);
  for (const auto& v : boxed) {
    bytes += sizeof(Value);
    if (v.type_id() == TypeId::kString) bytes += v.str().capacity();
  }
  return bytes;
}

EncodedColumn EncodeColumnAs(const ColumnVector& column, ColumnEncoding scheme) {
  if (scheme == ColumnEncoding::kBoxed ||
      BankFor(*column.type()) == Bank::kBoxed) {
    return EncodeBoxed(column);
  }
  return WithSlots(column, [&](const auto& slots) {
    ChunkModel model =
        Analyze(slots, column, scheme == ColumnEncoding::kDictionary);
    return Emit(slots, column, scheme, model);
  });
}

EncodedColumn EncodeColumn(const ColumnVector& column) {
  if (BankFor(*column.type()) == Bank::kBoxed) return EncodeBoxed(column);
  return WithSlots(column, [&](const auto& slots) {
    ChunkModel model = Analyze(slots, column, /*with_dictionary=*/true);
    return Emit(slots, column, model.Cheapest(), model);
  });
}

std::vector<EncodedColumn> EncodeRows(const StructType& schema,
                                      const Row* begin, const Row* end) {
  std::vector<EncodedColumn> out;
  out.reserve(schema.num_fields());
  for (size_t c = 0; c < schema.num_fields(); ++c) {
    ColumnVector col(schema.field(c).type);
    col.Reserve(static_cast<size_t>(end - begin));
    for (const Row* row = begin; row != end; ++row) col.Append(row->Get(c));
    out.push_back(EncodeColumn(col));
  }
  return out;
}

ColumnVector DecodeColumn(const EncodedColumn& column) {
  return DecodeColumn(
      column,
      std::string_view(reinterpret_cast<const char*>(column.data.data()),
                       column.data.size()));
}

ColumnVector DecodeColumn(const EncodedColumn& column,
                          std::string_view payload) {
  ColumnVector out(column.type);
  out.Reserve(column.num_rows);
  Bank bank = BankFor(*column.type);

  if (column.encoding == ColumnEncoding::kBoxed) {
    for (const auto& v : column.boxed) out.Append(v);
    return out;
  }

  Reader r{reinterpret_cast<const uint8_t*>(payload.data()), payload.size()};
  switch (column.encoding) {
    case ColumnEncoding::kPlain: {
      for (uint32_t i = 0; i < column.num_rows; ++i) {
        if (r.U8() != 0) {
          out.AppendNull();
        } else {
          AppendBankValue(&r, bank, *column.type, &out);
        }
      }
      break;
    }
    case ColumnEncoding::kRunLength: {
      uint32_t produced = 0;
      while (produced < column.num_rows) {
        uint32_t run = r.U32();
        if (run == 0 || run > column.num_rows - produced) {
          throw IoError("corrupt columnar data (run of " + std::to_string(run) +
                        " rows at row " + std::to_string(produced) + " of " +
                        std::to_string(column.num_rows) + ")");
        }
        if (r.U8() != 0) {
          for (uint32_t k = 0; k < run; ++k) out.AppendNull();
        } else {
          // Decode the run's value once, then replicate its bank slot.
          size_t first = out.size();
          AppendBankValue(&r, bank, *column.type, &out);
          for (uint32_t k = 1; k < run; ++k) AppendSlot(out, first, bank, &out);
        }
        produced += run;
      }
      break;
    }
    case ColumnEncoding::kDictionary: {
      uint32_t dict_size = r.U32();
      ColumnVector dict(column.type);
      dict.Reserve(dict_size);
      for (uint32_t i = 0; i < dict_size; ++i) {
        AppendBankValue(&r, bank, *column.type, &dict);
      }
      for (uint32_t i = 0; i < column.num_rows; ++i) {
        uint32_t code = r.U32();
        if (code == 0xFFFFFFFFu) {
          out.AppendNull();
        } else if (code >= dict_size) {
          throw IoError("corrupt columnar data (dictionary code " +
                        std::to_string(code) + " of " +
                        std::to_string(dict_size) + ")");
        } else {
          AppendSlot(dict, code, bank, &out);
        }
      }
      break;
    }
    case ColumnEncoding::kBoxed:
      break;
  }
  return out;
}

void SerializeColumn(const EncodedColumn& column, std::string* out) {
  if (column.encoding == ColumnEncoding::kBoxed) {
    throw IoError("boxed columns cannot be serialized to disk");
  }
  std::vector<uint8_t> header;
  PutU8(&header, static_cast<uint8_t>(column.encoding));
  PutU32(&header, column.num_rows);
  PutU8(&header, column.has_nulls ? 1 : 0);
  Bank bank = BankFor(*column.type);
  auto put_stat = [&](const std::optional<Value>& v) {
    PutU8(&header, v.has_value() ? 1 : 0);
    if (!v.has_value()) return;
    switch (bank) {
      case Bank::kInt:
        PutI64(&header, v->type_id() == TypeId::kDecimal ? v->decimal().unscaled()
                                                         : v->AsInt64());
        break;
      case Bank::kDouble:
        PutF64(&header, v->f64());
        break;
      case Bank::kString:
        PutStr(&header, v->str());
        break;
      case Bank::kBoxed:
        break;
    }
  };
  put_stat(column.min);
  put_stat(column.max);
  PutU32(&header, static_cast<uint32_t>(column.data.size()));
  out->append(reinterpret_cast<const char*>(header.data()), header.size());
  out->append(reinterpret_cast<const char*>(column.data.data()),
              column.data.size());
}

EncodedColumn DeserializeColumn(const std::string& in, size_t* offset,
                                const DataTypePtr& type) {
  std::string_view payload;
  EncodedColumn col = ReadColumnHeader(in, offset, type, &payload);
  col.data.assign(payload.begin(), payload.end());
  return col;
}

EncodedColumn ReadColumnHeader(std::string_view in, size_t* offset,
                               const DataTypePtr& type,
                               std::string_view* payload) {
  EncodedColumn col;
  col.type = type;
  Reader r{reinterpret_cast<const uint8_t*>(in.data()), in.size()};
  r.pos = *offset;
  col.encoding = static_cast<ColumnEncoding>(r.U8());
  col.num_rows = r.U32();
  col.has_nulls = r.U8() != 0;
  Bank bank = BankFor(*type);
  auto read_stat = [&]() -> std::optional<Value> {
    if (r.U8() == 0) return std::nullopt;
    return ReadBankValue(&r, bank, type);
  };
  col.min = read_stat();
  col.max = read_stat();
  uint32_t len = r.U32();
  r.Need(len);
  *payload = in.substr(r.pos, len);
  *offset = r.pos + len;
  return col;
}

}  // namespace ssql
