(** Table rendering for the reproduced experiments.

    Every cell carries the measured value and, when available, the
    paper's reported value, so a rendered table reads
    [measured \[paper\]] side by side. *)

type cell = { measured : float; paper : float option }

type 'c row = { row_label : string; cells : 'c list }

type 'c table = {
  id : string;  (** e.g. "Table 3" *)
  title : string;
  columns : string list;
  rows : 'c row list;
  notes : string list;
}
(** A table of ['c] cells: {!cell}s once rendered, the runs they read
    while declared ({!Experiment.table}). *)

val cell : ?paper:float -> float -> cell

val to_string : cell table -> string

val to_csv : cell table -> string
(** Machine-readable dump: [row,column,measured,paper]. *)

val mean_abs_log_ratio : cell table -> float
(** Shape metric: mean over cells (with paper values > 0) of
    [|log (measured / paper)|].  0 = perfect reproduction; 0.7 ~ a 2x
    average discrepancy. *)
