(** {!Engine_log} in its [Delta] format with the default two log disks,
    under the engine name ["logging-delta"]: the slimmed log the storage
    bench's log-format head-to-head and group-commit crash check run. *)

include module type of struct
  include Engine_log
end
