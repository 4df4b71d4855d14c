(** {!Engine_log} in its [Delta] format with the default two log disks,
    under the engine name ["logging-delta"]: the slimmed log the server
    sweep and [dbmsim serve-bench --engine logging-delta] run. *)

include module type of struct
  include Engine_log
end
