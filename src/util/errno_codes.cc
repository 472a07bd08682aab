#include "util/errno_codes.h"

#include <utility>

#include "util/string_util.h"

namespace lfi {
namespace {

// Constant-initialized with no destructor: a thread still running at exit
// (an abandoned hung job) may format an errno after static destructors ran.
constexpr std::pair<int, const char*> kTable[] = {
    {kEOK, "EOK"},
    {kEPERM, "EPERM"},
    {kENOENT, "ENOENT"},
    {kESRCH, "ESRCH"},
    {kEINTR, "EINTR"},
    {kEIO, "EIO"},
    {kENXIO, "ENXIO"},
    {kEBADF, "EBADF"},
    {kEAGAIN, "EAGAIN"},
    {kENOMEM, "ENOMEM"},
    {kEACCES, "EACCES"},
    {kEFAULT, "EFAULT"},
    {kEBUSY, "EBUSY"},
    {kEEXIST, "EEXIST"},
    {kEXDEV, "EXDEV"},
    {kENODEV, "ENODEV"},
    {kENOTDIR, "ENOTDIR"},
    {kEISDIR, "EISDIR"},
    {kEINVAL, "EINVAL"},
    {kENFILE, "ENFILE"},
    {kEMFILE, "EMFILE"},
    {kENOTTY, "ENOTTY"},
    {kEFBIG, "EFBIG"},
    {kENOSPC, "ENOSPC"},
    {kESPIPE, "ESPIPE"},
    {kEROFS, "EROFS"},
    {kEMLINK, "EMLINK"},
    {kEPIPE, "EPIPE"},
    {kEDOM, "EDOM"},
    {kERANGE, "ERANGE"},
    {kEDEADLK, "EDEADLK"},
    {kENAMETOOLONG, "ENAMETOOLONG"},
    {kENOSYS, "ENOSYS"},
    {kENOTEMPTY, "ENOTEMPTY"},
    {kELOOP, "ELOOP"},
    {kEMSGSIZE, "EMSGSIZE"},
    {kECONNRESET, "ECONNRESET"},
    {kENOBUFS, "ENOBUFS"},
    {kENOTCONN, "ENOTCONN"},
    {kETIMEDOUT, "ETIMEDOUT"},
    {kECONNREFUSED, "ECONNREFUSED"},
    {kEHOSTUNREACH, "EHOSTUNREACH"},
};

}  // namespace

std::string ErrnoName(int value) {
  for (const auto& [v, name] : kTable) {
    if (v == value) {
      return name;
    }
  }
  return StrFormat("E%d", value);
}

std::optional<int> ErrnoFromName(std::string_view name) {
  for (const auto& [v, n] : kTable) {
    if (name == n) {
      return v;
    }
  }
  // Invert the "E<value>" fallback ErrnoName emits for unnamed errnos, and
  // keep accepting bare decimal values.
  if (!name.empty() && name[0] == 'E') {
    auto fallback = ParseInt(name.substr(1));
    if (fallback && *fallback >= 0 && *fallback < 4096) {
      return static_cast<int>(*fallback);
    }
  }
  auto parsed = ParseInt(name);
  if (parsed && *parsed >= 0 && *parsed < 4096) {
    return static_cast<int>(*parsed);
  }
  return std::nullopt;
}

}  // namespace lfi
