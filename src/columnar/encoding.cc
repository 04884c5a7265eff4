#include "columnar/encoding.h"

#include <cstring>
#include <map>

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

void PutBankValue(std::vector<uint8_t>* out, Bank bank, const ColumnVector& col,
                  size_t i) {
  switch (bank) {
    case Bank::kInt:
      PutI64(out, col.GetInt64(i));
      break;
    case Bank::kDouble:
      PutF64(out, col.GetDouble(i));
      break;
    case Bank::kString:
      PutStr(out, col.GetString(i));
      break;
    case Bank::kBoxed:
      break;
  }
}

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

/// Key used to compare/group values of one column cheaply.
std::string RunKey(const ColumnVector& col, Bank bank, size_t i) {
  if (col.IsNull(i)) return std::string("\x01");
  switch (bank) {
    case Bank::kInt: {
      int64_t v = col.GetInt64(i);
      return std::string(reinterpret_cast<const char*>(&v), 8);
    }
    case Bank::kDouble: {
      double v = col.GetDouble(i);
      return std::string(reinterpret_cast<const char*>(&v), 8);
    }
    case Bank::kString:
      return "\x02" + col.GetString(i);
    case Bank::kBoxed:
      return col.boxed()[i].ToString();
  }
  return "";
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
  EncodedColumn out;
  out.type = column.type();
  out.num_rows = static_cast<uint32_t>(column.size());
  Bank bank = BankFor(*column.type());

  // Stats.
  for (size_t i = 0; i < column.size(); ++i) {
    if (column.IsNull(i)) {
      out.has_nulls = true;
      continue;
    }
    Value v = column.GetValue(i);
    if (!out.min || v.Compare(*out.min) < 0) out.min = v;
    if (!out.max || v.Compare(*out.max) > 0) out.max = v;
  }

  if (bank == Bank::kBoxed || scheme == ColumnEncoding::kBoxed) {
    out.encoding = ColumnEncoding::kBoxed;
    out.boxed.reserve(column.size());
    for (size_t i = 0; i < column.size(); ++i) out.boxed.push_back(column.GetValue(i));
    return out;
  }

  out.encoding = scheme;
  switch (scheme) {
    case ColumnEncoding::kPlain: {
      for (size_t i = 0; i < column.size(); ++i) {
        PutU8(&out.data, column.IsNull(i) ? 1 : 0);
        if (!column.IsNull(i)) PutBankValue(&out.data, bank, column, i);
      }
      break;
    }
    case ColumnEncoding::kRunLength: {
      size_t i = 0;
      while (i < column.size()) {
        size_t j = i + 1;
        std::string key = RunKey(column, bank, i);
        while (j < column.size() && RunKey(column, bank, j) == key) ++j;
        PutU32(&out.data, static_cast<uint32_t>(j - i));
        PutU8(&out.data, column.IsNull(i) ? 1 : 0);
        if (!column.IsNull(i)) PutBankValue(&out.data, bank, column, i);
        i = j;
      }
      break;
    }
    case ColumnEncoding::kDictionary: {
      std::map<std::string, uint32_t> dict;  // key -> index
      std::vector<size_t> first_row;         // dict index -> sample row
      std::vector<uint32_t> codes(column.size());
      for (size_t i = 0; i < column.size(); ++i) {
        if (column.IsNull(i)) {
          codes[i] = 0xFFFFFFFFu;
          continue;
        }
        std::string key = RunKey(column, bank, i);
        auto it = dict.find(key);
        if (it == dict.end()) {
          it = dict.emplace(key, static_cast<uint32_t>(first_row.size())).first;
          first_row.push_back(i);
        }
        codes[i] = it->second;
      }
      PutU32(&out.data, static_cast<uint32_t>(first_row.size()));
      for (size_t row : first_row) PutBankValue(&out.data, bank, column, row);
      for (uint32_t code : codes) PutU32(&out.data, code);
      break;
    }
    case ColumnEncoding::kBoxed:
      break;  // handled above
  }
  return out;
}

EncodedColumn EncodeColumn(const ColumnVector& column) {
  Bank bank = BankFor(*column.type());
  if (bank == Bank::kBoxed) return EncodeColumnAs(column, ColumnEncoding::kBoxed);
  EncodedColumn plain = EncodeColumnAs(column, ColumnEncoding::kPlain);
  EncodedColumn rle = EncodeColumnAs(column, ColumnEncoding::kRunLength);
  EncodedColumn dict = EncodeColumnAs(column, ColumnEncoding::kDictionary);
  EncodedColumn* best = &plain;
  if (rle.data.size() < best->data.size()) best = &rle;
  if (dict.data.size() < best->data.size()) best = &dict;
  return std::move(*best);
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
