//===--- ContentKey.h - Content addresses for cached artifacts -----------===//
//
// Part of the dpopt project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one hash behind the compile service's cache keys: a 128-bit,
/// word-at-a-time, non-cryptographic hash over a list of fields, printed
/// as 32 lowercase hex digits. Keys name artifact files on disk, so the
/// value for a given input is part of the cache format: changing the hash
/// orphans every stored artifact (they age out through LRU).
///
//===----------------------------------------------------------------------===//

#ifndef DPO_SERVICE_CONTENTKEY_H
#define DPO_SERVICE_CONTENTKEY_H

#include <initializer_list>
#include <string>
#include <string_view>

namespace dpo {

/// \p Prefix followed by the 32-hex-digit content address of \p Fields.
/// Each field is framed by its length, so moving bytes across a field
/// boundary changes the key; the result is the same on every host.
std::string contentKey(std::initializer_list<std::string_view> Fields,
                       std::string_view Prefix = {});

} // namespace dpo

#endif // DPO_SERVICE_CONTENTKEY_H
