#include "serial/sinew_format.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/bytes.h"

namespace sinew::serial {

namespace {

constexpr size_t kU32 = sizeof(uint32_t);

uint32_t LoadU32(std::string_view data, size_t offset) {
  uint32_t v;
  std::memcpy(&v, data.data() + offset, kU32);
  return v;
}

Status EncodeScalar(const Value& value, std::string* out) {
  BufferWriter w;
  switch (value.type()) {
    case ValueType::kBool:
      w.PutU8(value.bool_value() ? 1 : 0);
      break;
    case ValueType::kInt:
      w.PutI64(value.int_value());
      break;
    case ValueType::kDouble:
      w.PutDouble(value.double_value());
      break;
    case ValueType::kString:
      w.PutBytes(value.string_value());
      break;
    default:
      return Status::Internal("EncodeScalar on non-scalar ",
                              ValueTypeName(value.type()));
  }
  *out = w.Release();
  return Status::OK();
}

Result<std::string> EncodeArray(const Value& value, AttributeDictionary* dict,
                                const std::string& path_prefix) {
  BufferWriter w;
  const std::vector<Value>& elements = value.array();
  w.PutU32(static_cast<uint32_t>(elements.size()));
  std::vector<std::string> bodies;
  bodies.reserve(elements.size());
  for (const Value& e : elements) {
    ASSIGN_OR_RETURN(std::string body,
                     EncodeValueBody(e, dict, path_prefix));
    w.PutU8(static_cast<uint8_t>(e.type()));
    w.PutU32(static_cast<uint32_t>(body.size()));
    bodies.push_back(std::move(body));
  }
  for (const std::string& b : bodies) w.PutBytes(b);
  return w.Release();
}

Result<Value> DecodeArray(std::string_view bytes,
                          const AttributeDictionary& dict) {
  BufferReader r(bytes);
  ASSIGN_OR_RETURN(uint32_t count, r.ReadU32());
  // Each element needs at least a 5-byte (tag + length) table entry; a
  // larger count can only come from corrupted input, and allocating for it
  // would be an OOM vector.
  if (count > r.remaining() / 5) {
    return Status::ParseError("array count ", count,
                              " exceeds available bytes");
  }
  std::vector<uint8_t> tags(count);
  std::vector<uint32_t> lengths(count);
  for (uint32_t i = 0; i < count; ++i) {
    ASSIGN_OR_RETURN(tags[i], r.ReadU8());
    ASSIGN_OR_RETURN(lengths[i], r.ReadU32());
  }
  std::vector<Value> elements;
  elements.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    ASSIGN_OR_RETURN(std::string_view body, r.ReadBytes(lengths[i]));
    ASSIGN_OR_RETURN(
        Value v, DecodeValueBody(static_cast<ValueType>(tags[i]), body, dict));
    elements.push_back(std::move(v));
  }
  return Value::Array(std::move(elements));
}

}  // namespace

Result<std::string> EncodeValueBody(const Value& value,
                                    AttributeDictionary* dict,
                                    const std::string& path_prefix) {
  switch (value.type()) {
    case ValueType::kNull:
      return std::string();
    case ValueType::kBool:
    case ValueType::kInt:
    case ValueType::kDouble:
    case ValueType::kString: {
      std::string out;
      RETURN_NOT_OK(EncodeScalar(value, &out));
      return out;
    }
    case ValueType::kObject:
      return SerializeDocument(value, dict, path_prefix);
    case ValueType::kArray:
      return EncodeArray(value, dict, path_prefix);
  }
  return Status::Internal("unreachable value type");
}

Result<Value> DecodeValueBody(ValueType type, std::string_view bytes,
                              const AttributeDictionary& dict) {
  switch (type) {
    case ValueType::kNull:
      return Value::Null();
    case ValueType::kBool: {
      BufferReader r(bytes);
      ASSIGN_OR_RETURN(uint8_t b, r.ReadU8());
      return Value::Bool(b != 0);
    }
    case ValueType::kInt: {
      BufferReader r(bytes);
      ASSIGN_OR_RETURN(int64_t v, r.ReadI64());
      return Value::Int(v);
    }
    case ValueType::kDouble: {
      BufferReader r(bytes);
      ASSIGN_OR_RETURN(double v, r.ReadDouble());
      return Value::Double(v);
    }
    case ValueType::kString:
      return Value::String(std::string(bytes));
    case ValueType::kObject:
      return DeserializeDocument(bytes, dict);
    case ValueType::kArray:
      return DecodeArray(bytes, dict);
  }
  return Status::ParseError("invalid value type tag");
}

Result<std::string> SerializeDocument(const Value& doc,
                                      AttributeDictionary* dict,
                                      const std::string& path_prefix) {
  if (!doc.is_object()) {
    return Status::InvalidArgument("can only serialize objects, got ",
                                   ValueTypeName(doc.type()));
  }
  struct Entry {
    uint32_t id;
    std::string body;
  };
  std::vector<Entry> entries;
  entries.reserve(doc.members().size());
  for (const auto& [key, value] : doc.members()) {
    if (value.is_null()) continue;  // absence encodes NULL
    std::string path = path_prefix + key;
    ASSIGN_OR_RETURN(uint32_t id, dict->Intern(path, value.type()));
    ASSIGN_OR_RETURN(std::string body,
                     EncodeValueBody(value, dict, path + "."));
    // Duplicate keys in one object: last writer wins, as in JSON semantics.
    auto it = std::find_if(entries.begin(), entries.end(),
                           [id](const Entry& e) { return e.id == id; });
    if (it != entries.end()) {
      it->body = std::move(body);
    } else {
      entries.push_back(Entry{id, std::move(body)});
    }
  }
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return a.id < b.id; });

  uint32_t n = static_cast<uint32_t>(entries.size());
  size_t body_size = 0;
  for (const Entry& e : entries) body_size += e.body.size();
  BufferWriter w(kU32 * (2 * n + 2) + body_size);
  w.PutU32(n);
  for (const Entry& e : entries) w.PutU32(e.id);
  uint32_t offset = 0;
  for (const Entry& e : entries) {
    w.PutU32(offset);
    offset += static_cast<uint32_t>(e.body.size());
  }
  w.PutU32(offset);  // total body length
  for (const Entry& e : entries) w.PutBytes(e.body);
  return w.Release();
}

namespace {

/// The interning half of EncodeValueBody: objects intern their members and
/// recurse with "path."; array elements recurse with the array's prefix.
Status InternValue(const Value& value, AttributeDictionary* dict,
                   const std::string& path_prefix) {
  if (value.is_object()) return InternDocument(value, dict, path_prefix);
  if (value.is_array()) {
    for (const Value& e : value.array()) {
      RETURN_NOT_OK(InternValue(e, dict, path_prefix));
    }
  }
  return Status::OK();
}

}  // namespace

Status InternDocument(const Value& doc, AttributeDictionary* dict,
                      const std::string& path_prefix) {
  if (!doc.is_object()) {
    return Status::InvalidArgument("can only intern objects, got ",
                                   ValueTypeName(doc.type()));
  }
  for (const auto& [key, value] : doc.members()) {
    if (value.is_null()) continue;  // absence encodes NULL
    std::string path = path_prefix + key;
    RETURN_NOT_OK(dict->Intern(path, value.type()).status());
    RETURN_NOT_OK(InternValue(value, dict, path + "."));
  }
  return Status::OK();
}

Result<Value> DeserializeDocument(std::string_view data,
                                  const AttributeDictionary& dict) {
  DocumentView view(data);
  RETURN_NOT_OK(view.Validate());
  ASSIGN_OR_RETURN(uint32_t n, view.attribute_count());
  std::vector<Value::Member> members;
  members.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    uint32_t id = view.AttributeIdAt(i);
    ASSIGN_OR_RETURN(Attribute attr, dict.Lookup(id));
    std::optional<std::string_view> bytes = view.Extract(id);
    if (!bytes.has_value()) {
      return Status::Internal("attribute listed in header but not extractable");
    }
    ASSIGN_OR_RETURN(Value v, DecodeValueBody(attr.type, *bytes, dict));
    // Member name: strip any parent path ("user.id" -> "id") so nested
    // deserialization rebuilds the original document shape.
    size_t dot = attr.key.rfind('.');
    std::string name =
        dot == std::string::npos ? attr.key : attr.key.substr(dot + 1);
    members.emplace_back(std::move(name), std::move(v));
  }
  return Value::Object(std::move(members));
}

Status DocumentView::Validate() const {
  if (data_.size() < kU32) return Status::ParseError("document too short");
  uint32_t n = LoadU32(data_, 0);
  size_t header_size = kU32 * (2 + 2 * static_cast<size_t>(n));
  if (data_.size() < header_size) {
    return Status::ParseError("document header truncated");
  }
  uint32_t prev_id = 0;
  for (uint32_t i = 0; i < n; ++i) {
    uint32_t id = LoadU32(data_, kU32 * (1 + i));
    if (i > 0 && id <= prev_id) {
      return Status::ParseError("attribute ids not strictly ascending");
    }
    prev_id = id;
  }
  uint32_t prev_off = 0;
  for (uint32_t i = 0; i <= n; ++i) {
    uint32_t off = LoadU32(data_, kU32 * (1 + n + i));
    if (off < prev_off) return Status::ParseError("offsets not monotone");
    prev_off = off;
  }
  if (header_size + prev_off != data_.size()) {
    return Status::ParseError("body length mismatch");
  }
  return Status::OK();
}

Result<uint32_t> DocumentView::attribute_count() const {
  if (data_.size() < kU32) return Status::ParseError("document too short");
  return LoadU32(data_, 0);
}

uint32_t DocumentView::AttributeIdAt(uint32_t i) const {
  return LoadU32(data_, kU32 * (1 + i));
}

bool DocumentView::Has(uint32_t id) const { return Extract(id).has_value(); }

std::optional<std::string_view> DocumentView::Extract(uint32_t id) const {
  if (data_.size() < kU32) return std::nullopt;
  uint32_t n = LoadU32(data_, 0);
  if (data_.size() < kU32 * (2 + 2 * static_cast<size_t>(n))) {
    return std::nullopt;
  }
  // Binary search the sorted attribute-ID run.
  const char* ids_base = data_.data() + kU32;
  uint32_t lo = 0, hi = n;
  while (lo < hi) {
    uint32_t mid = lo + (hi - lo) / 2;
    uint32_t mid_id;
    std::memcpy(&mid_id, ids_base + kU32 * mid, kU32);
    if (mid_id < id) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo >= n) return std::nullopt;
  uint32_t found;
  std::memcpy(&found, ids_base + kU32 * lo, kU32);
  if (found != id) return std::nullopt;
  size_t offsets_base = kU32 * (1 + n);
  uint32_t begin = LoadU32(data_, offsets_base + kU32 * lo);
  uint32_t end = LoadU32(data_, offsets_base + kU32 * (lo + 1));
  size_t body_base = kU32 * (2 + 2 * static_cast<size_t>(n));
  if (body_base + end > data_.size() || begin > end) return std::nullopt;
  return data_.substr(body_base + begin, end - begin);
}

size_t DocumentView::ExtractMany(const uint32_t* ids, size_t count,
                                 std::optional<std::string_view>* out) const {
  for (size_t i = 0; i < count; ++i) out[i] = std::nullopt;
  if (count == 0 || data_.size() < kU32) return 0;
  uint32_t n = LoadU32(data_, 0);
  size_t body_base = kU32 * (2 + 2 * static_cast<size_t>(n));
  if (data_.size() < body_base || n == 0) return 0;
  const char* ids_base = data_.data() + kU32;
  size_t offsets_base = kU32 * (1 + n);
  size_t found = 0;
  uint32_t pos = 0;
  uint32_t doc_id;
  std::memcpy(&doc_id, ids_base, kU32);
  for (size_t i = 0; i < count && pos < n;) {
    if (doc_id < ids[i]) {
      ++pos;
      if (pos < n) std::memcpy(&doc_id, ids_base + kU32 * pos, kU32);
    } else if (doc_id > ids[i]) {
      ++i;
    } else {
      uint32_t begin = LoadU32(data_, offsets_base + kU32 * pos);
      uint32_t end = LoadU32(data_, offsets_base + kU32 * (pos + 1));
      if (body_base + end <= data_.size() && begin <= end) {
        out[i] = data_.substr(body_base + begin, end - begin);
        ++found;
      }
      ++i;  // pos stays put so a duplicate wanted id matches again
    }
  }
  return found;
}

Result<Value> DocumentView::ExtractValue(uint32_t id,
                                         const AttributeDictionary& dict) const {
  std::optional<std::string_view> bytes = Extract(id);
  if (!bytes.has_value()) return Value::Null();
  ASSIGN_OR_RETURN(Attribute attr, dict.Lookup(id));
  return DecodeValueBody(attr.type, *bytes, dict);
}

std::optional<std::string_view> DocumentView::ExtractPath(
    std::string_view path, ValueType type,
    const AttributeDictionary& dict) const {
  // Direct hit: the full dotted path is an attribute of this document level.
  if (std::optional<uint32_t> id = dict.FindId(path, type)) {
    if (std::optional<std::string_view> v = Extract(*id)) return v;
  }
  // Otherwise descend through enclosing nested objects, trying each dotted
  // prefix as an object-typed attribute of this level.
  for (size_t dot = path.find('.'); dot != std::string_view::npos;
       dot = path.find('.', dot + 1)) {
    std::string_view prefix = path.substr(0, dot);
    std::optional<uint32_t> oid = dict.FindId(prefix, ValueType::kObject);
    if (!oid.has_value()) continue;
    std::optional<std::string_view> sub = Extract(*oid);
    if (!sub.has_value()) continue;
    return DocumentView(*sub).ExtractPath(path, type, dict);
  }
  return std::nullopt;
}

Result<bool> ArrayContainsScalar(std::string_view array_bytes,
                                 const Value& needle) {
  BufferReader r(array_bytes);
  ASSIGN_OR_RETURN(uint32_t count, r.ReadU32());
  if (count > r.remaining() / 5) {
    return Status::ParseError("array count ", count,
                              " exceeds available bytes");
  }
  std::vector<std::pair<ValueType, uint32_t>> elements(count);
  for (uint32_t i = 0; i < count; ++i) {
    ASSIGN_OR_RETURN(uint8_t tag, r.ReadU8());
    ASSIGN_OR_RETURN(uint32_t len, r.ReadU32());
    elements[i] = {static_cast<ValueType>(tag), len};
  }
  for (uint32_t i = 0; i < count; ++i) {
    auto [type, len] = elements[i];
    ASSIGN_OR_RETURN(std::string_view body, r.ReadBytes(len));
    switch (needle.type()) {
      case ValueType::kString:
        if (type == ValueType::kString && body == needle.string_value()) {
          return true;
        }
        break;
      case ValueType::kBool: {
        if (type == ValueType::kBool && len == 1 &&
            (body[0] != 0) == needle.bool_value()) {
          return true;
        }
        break;
      }
      case ValueType::kInt:
      case ValueType::kDouble: {
        double want = needle.AsDouble();
        if (type == ValueType::kInt && len == 8) {
          int64_t v;
          std::memcpy(&v, body.data(), 8);
          if (static_cast<double>(v) == want) return true;
        } else if (type == ValueType::kDouble && len == 8) {
          double v;
          std::memcpy(&v, body.data(), 8);
          if (v == want) return true;
        }
        break;
      }
      default:
        break;
    }
  }
  return false;
}

namespace {

struct ParsedDoc {
  uint32_t n;
  std::vector<uint32_t> ids;
  std::vector<uint32_t> offsets;  // n+1 entries
  std::string_view body;
};

Result<ParsedDoc> ParseHeader(std::string_view data) {
  DocumentView view(data);
  RETURN_NOT_OK(view.Validate());
  ParsedDoc doc;
  doc.n = LoadU32(data, 0);
  doc.ids.resize(doc.n);
  doc.offsets.resize(doc.n + 1);
  for (uint32_t i = 0; i < doc.n; ++i) {
    doc.ids[i] = LoadU32(data, kU32 * (1 + i));
  }
  for (uint32_t i = 0; i <= doc.n; ++i) {
    doc.offsets[i] = LoadU32(data, kU32 * (1 + doc.n + i));
  }
  doc.body = data.substr(kU32 * (2 + 2 * static_cast<size_t>(doc.n)));
  return doc;
}

std::string Rebuild(const std::vector<uint32_t>& ids,
                    const std::vector<std::string_view>& bodies) {
  uint32_t n = static_cast<uint32_t>(ids.size());
  size_t body_size = 0;
  for (std::string_view b : bodies) body_size += b.size();
  BufferWriter w(kU32 * (2 * n + 2) + body_size);
  w.PutU32(n);
  for (uint32_t id : ids) w.PutU32(id);
  uint32_t offset = 0;
  for (std::string_view b : bodies) {
    w.PutU32(offset);
    offset += static_cast<uint32_t>(b.size());
  }
  w.PutU32(offset);
  for (std::string_view b : bodies) w.PutBytes(b);
  return w.Release();
}

}  // namespace

Result<std::string> SetAttribute(std::string_view data, uint32_t id,
                                 std::string_view encoded) {
  ASSIGN_OR_RETURN(ParsedDoc doc, ParseHeader(data));
  std::vector<uint32_t> ids;
  std::vector<std::string_view> bodies;
  ids.reserve(doc.n + 1);
  bodies.reserve(doc.n + 1);
  bool inserted = false;
  for (uint32_t i = 0; i < doc.n; ++i) {
    std::string_view body =
        doc.body.substr(doc.offsets[i], doc.offsets[i + 1] - doc.offsets[i]);
    if (doc.ids[i] == id) {
      ids.push_back(id);
      bodies.push_back(encoded);
      inserted = true;
    } else {
      if (!inserted && doc.ids[i] > id) {
        ids.push_back(id);
        bodies.push_back(encoded);
        inserted = true;
      }
      ids.push_back(doc.ids[i]);
      bodies.push_back(body);
    }
  }
  if (!inserted) {
    ids.push_back(id);
    bodies.push_back(encoded);
  }
  return Rebuild(ids, bodies);
}

Result<std::string> RemoveAttribute(std::string_view data, uint32_t id) {
  ASSIGN_OR_RETURN(ParsedDoc doc, ParseHeader(data));
  std::vector<uint32_t> ids;
  std::vector<std::string_view> bodies;
  ids.reserve(doc.n);
  bodies.reserve(doc.n);
  for (uint32_t i = 0; i < doc.n; ++i) {
    if (doc.ids[i] == id) continue;
    ids.push_back(doc.ids[i]);
    bodies.push_back(
        doc.body.substr(doc.offsets[i], doc.offsets[i + 1] - doc.offsets[i]));
  }
  return Rebuild(ids, bodies);
}

}  // namespace sinew::serial
