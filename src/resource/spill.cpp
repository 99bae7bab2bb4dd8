#include "resource/spill.hpp"

#include <unistd.h>

#include <atomic>
#include <cstring>
#include <filesystem>

#include "resource/governor.hpp"
#include "support/codec.hpp"
#include "support/error.hpp"

namespace elmo::resource {
namespace {

constexpr char kMagic[8] = {'E', 'L', 'M', 'O', 'S', 'P', 'L', '1'};

}  // namespace

SpillFile::SpillFile(std::string directory, MemoryGovernor* governor)
    : directory_(std::move(directory)), governor_(governor) {}

SpillFile::~SpillFile() {
  if (file_.is_open()) file_.close();
  if (!path_.empty()) {
    std::error_code ec;
    std::filesystem::remove(path_, ec);  // best effort
  }
}

void SpillFile::ensure_open() {
  if (file_.is_open()) return;
  namespace fs = std::filesystem;
  fs::path dir = directory_.empty() ? fs::temp_directory_path()
                                    : fs::path(directory_);
  std::error_code ec;
  fs::create_directories(dir, ec);
  static std::atomic<std::uint64_t> sequence{0};
  const std::uint64_t seq = sequence.fetch_add(1);
  fs::path p = dir / ("elmo-spill-" + std::to_string(::getpid()) + "-" +
                      std::to_string(seq) + ".bin");
  path_ = p.string();
  file_.open(path_, std::ios::binary | std::ios::in | std::ios::out |
                        std::ios::trunc);
  if (!file_)
    throw Error("spill: cannot create spill file at " + path_);
  file_.write(kMagic, sizeof(kMagic));
  file_.flush();
}

void SpillFile::append_block(const std::vector<std::uint8_t>& body) {
  ensure_open();
  file_.clear();
  file_.seekp(0, std::ios::end);
  codec::write_frame(file_, body);
  file_.flush();
  if (!file_) throw Error("spill: short write to " + path_);
  ++block_count_;
  bytes_spilled_ += body.size();
  if (governor_ != nullptr) governor_->note_spill(body.size());
}

void SpillFile::for_each_block(
    const std::function<void(std::vector<std::uint8_t>&&)>& fn) {
  if (block_count_ == 0) return;
  file_.clear();
  file_.seekg(0);
  char magic[sizeof(kMagic)];
  file_.read(magic, sizeof(magic));
  if (!file_ || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0)
    throw ParseError("spill: bad magic in " + path_);
  const codec::FrameScan scan =
      codec::scan_frames(file_, [&](codec::Bytes&& body) {
        fn(std::move(body));
        return true;
      });
  if (scan.bad_crc) {
    throw CorruptPayloadError("spill: CRC mismatch in block " +
                                  std::to_string(scan.frames) + " of " +
                                  path_,
                              scan.bad_crc->stored, scan.bad_crc->actual);
  }
  if (scan.intact_end != scan.stream_end || scan.frames != block_count_)
    throw ParseError("spill: truncated frame in " + path_);
}

}  // namespace elmo::resource
